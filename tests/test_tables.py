import re

import pytest

from bundlegauge import tables as tables_module
from bundlegauge.abelian import localize, make_group, vp
from bundlegauge.bundles import require_pi6_zero
from bundlegauge.errors import OutOfScopeError, UnknownValueError
from bundlegauge.tables import (
    LieGroupId,
    PiTable,
    default_table,
    pi6,
    pi6_moore,
)


class TestLieGroupId:
    def test_parse_tokens(self):
        assert LieGroupId.parse("SU4") == LieGroupId("SU", 4)
        assert LieGroupId.parse("SU(4)") == LieGroupId("SU", 4)
        assert LieGroupId.parse("Sp2") == LieGroupId("Sp", 2)
        assert LieGroupId.parse("Spin(8)") == LieGroupId("Spin", 8)
        assert LieGroupId.parse("E7") == LieGroupId("E7")

    @pytest.mark.parametrize("token", ["SU(4", "SU4)", "SU()", "SU(4))", "Spin(8"])
    def test_parse_rejects_malformed_parentheses(self, token):
        with pytest.raises(ValueError, match="cannot parse"):
            LieGroupId.parse(token)

    def test_cli_reports_unbalanced_token_as_usage_error(self):
        from bundlegauge.cli import EXIT_USAGE, run

        for token in ("SU(4", "SU4)"):
            result = run(["--json", "classify", "--group", token, "--l", "0", "--m", "5"])
            assert result.exit_code == EXIT_USAGE
            assert result.payload["status"] == "usage-error"

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            LieGroupId("SU", 1)
        with pytest.raises(ValueError):
            LieGroupId("Spin", 4)
        with pytest.raises(ValueError):
            LieGroupId("G2", 2)

    def test_aliases(self):
        assert LieGroupId("Sp", 1).canonical() == LieGroupId("SU", 2)
        assert LieGroupId("Spin", 5).canonical() == LieGroupId("Sp", 2)
        assert LieGroupId("Spin", 6).canonical() == LieGroupId("SU", 4)
        assert LieGroupId("Spin", 7).canonical() == LieGroupId("Spin", 7)

    def test_display(self):
        assert str(LieGroupId("SU", 4)) == "SU(4)"
        assert str(LieGroupId("G2")) == "G2"


class TestSphereLookups:
    def test_pinned_values(self):
        assert default_table().sphere_record(3, 6).group == make_group(0, [12])
        assert default_table().sphere_record(3, 9).group == make_group(0, [3])
        assert default_table().sphere_record(4, 6).group == make_group(0, [2])
        assert default_table().sphere_record(4, 7).group == make_group(1, [12])
        assert default_table().sphere_record(5, 8).group == make_group(0, [24])

    def test_below_connectivity(self):
        assert default_table().sphere_record(7, 3).group.is_trivial

    def test_gap_is_unknown_not_a_guess(self):
        with pytest.raises(UnknownValueError):
            default_table().sphere_record(3, 25)
        with pytest.raises(UnknownValueError):
            default_table().sphere_record(2, 2)


class TestLieLookups:
    def test_sp2_row(self):
        g = LieGroupId("Sp", 2)
        assert default_table().lie_record(g, 3).group == make_group(1, [])
        assert default_table().lie_record(g, 4).group == make_group(0, [2])
        assert default_table().lie_record(g, 7).group == make_group(1, [])

    def test_pi2_vanishes_for_every_family(self):
        for g in [
            LieGroupId("SU", 2),
            LieGroupId("SU", 9),
            LieGroupId("Sp", 3),
            LieGroupId("Spin", 11),
            LieGroupId("G2"),
            LieGroupId("E8"),
        ]:
            assert default_table().lie_record(g, 2).group.is_trivial

    def test_spin8_pi7_has_rank_two(self):
        table = default_table()
        assert table.lie_record(LieGroupId("Spin", 8), 7).group == make_group(2, [])

    def test_family_records_use_most_specific_bound(self):
        table = default_table()
        assert table.lie_record(LieGroupId("Spin", 12), 9).group == make_group(0, [2])
        with pytest.raises(UnknownValueError):
            table.lie_record(LieGroupId("Spin", 10), 9)

    def test_aliased_lookups(self):
        table = default_table()
        assert table.lie_record(LieGroupId("Spin", 5), 4).group == make_group(0, [2])
        assert table.lie_record(LieGroupId("Spin", 6), 8).group == make_group(0, [24])
        assert table.lie_record(LieGroupId("Sp", 1), 6).group == make_group(0, [12])

    @pytest.mark.parametrize("g", [LieGroupId("SU", 2), LieGroupId("Sp", 1)])
    def test_su2_reads_the_s3_rows(self, g):
        table = default_table()
        for i in range(10):
            assert table.lie_record(g, i) is table.sphere_record(3, i)


class TestPi6:
    def test_table(self):
        assert pi6(LieGroupId("SU", 2)) == make_group(0, [12])
        assert pi6(LieGroupId("Sp", 1)) == make_group(0, [12])
        assert pi6(LieGroupId("SU", 3)) == make_group(0, [6])
        assert pi6(LieGroupId("G2")) == make_group(0, [3])

    def test_vanishing_families(self):
        for g in [
            LieGroupId("SU", 4),
            LieGroupId("SU", 11),
            LieGroupId("Sp", 2),
            LieGroupId("Spin", 5),
            LieGroupId("Spin", 7),
            LieGroupId("Spin", 14),
            LieGroupId("F4"),
            LieGroupId("E6"),
            LieGroupId("E7"),
            LieGroupId("E8"),
        ]:
            assert pi6(g).is_trivial

    def test_a_new_override_is_seen_at_once(self, tmp_path, monkeypatch):
        alt = tmp_path / "su4.txt"
        alt.write_text("SU4 | 6 | Z_7 | test\n", encoding="utf-8")
        su4 = LieGroupId("SU", 4)
        monkeypatch.delenv("BUNDLEGAUGE_TABLES", raising=False)
        packaged = pi6(su4)
        assert packaged.is_trivial
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        assert pi6(su4) == make_group(0, [7])
        with pytest.raises(OutOfScopeError, match=r"pi_6\(SU\(4\)\) = Z_7"):
            require_pi6_zero(su4)
        monkeypatch.delenv("BUNDLEGAUGE_TABLES")
        assert pi6(su4) is packaged
        require_pi6_zero(su4)

    def test_a_refusal_is_not_stored(self, tmp_path, monkeypatch):
        alt = tmp_path / "su4.txt"
        alt.write_text("SU4 | 4 | Z_7 | test\n", encoding="utf-8")
        su4 = LieGroupId("SU", 4)
        monkeypatch.delenv("BUNDLEGAUGE_TABLES", raising=False)
        assert pi6(su4).is_trivial
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        for _ in range(2):
            with pytest.raises(UnknownValueError, match="pi_6"):
                pi6(su4)
            with pytest.raises(UnknownValueError, match="pi_6"):
                require_pi6_zero(su4)
        monkeypatch.delenv("BUNDLEGAUGE_TABLES")
        assert pi6(su4).is_trivial

    def test_a_warm_gate_reads_the_variable_and_no_row(self, monkeypatch):
        monkeypatch.delenv("BUNDLEGAUGE_TABLES", raising=False)
        su4 = LieGroupId("SU", 4)
        require_pi6_zero(su4)
        calls = {"lie_record": 0, "default_table": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(PiTable, "lie_record", counting("lie_record", PiTable.lie_record))
        monkeypatch.setattr(tables_module, "default_table",
                            counting("default_table", tables_module.default_table))
        for _ in range(1000):
            require_pi6_zero(su4)
        assert calls == {"lie_record": 0, "default_table": 1000}

    def test_the_memo_stays_within_its_cap(self):
        cap = 256
        for n in range(5, cap + 100):
            assert pi6(LieGroupId("SU", n)).is_trivial
        assert tables_module._pi6.cache_info().currsize <= cap

    @pytest.mark.parametrize("g", ["SU4", ("SU", 4), None], ids=["str", "tuple", "none"])
    def test_a_group_that_is_no_lie_group_id_is_refused_cold_and_warm(self, g):
        # A tuple equals and hashes like the LieGroupId it spells.
        for _ in range(2):
            with pytest.raises(ValueError, match="LieGroupId"):
                pi6(g)
            with pytest.raises(ValueError, match="LieGroupId"):
                require_pi6_zero(g)
            assert pi6(LieGroupId("SU", 4)).is_trivial


class TestMoorePi6:
    def test_odd_case(self):
        # v2(5) = 0 and gcd(5,12) = 1, so only the Z_5 summand survives.
        assert pi6_moore(5) == make_group(0, [5])

    def test_low_even_case(self):
        # v2(2) = 1, gcd(2,12)/2 = 1: summands Z_4 and Z_2.
        assert pi6_moore(2) == make_group(0, [4, 2])

    def test_high_even_case(self):
        # v2(8) = 3, gcd(8,12) = 4: summands Z_4, Z_8, Z_2.
        assert pi6_moore(8) == make_group(0, [4, 8, 2])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            pi6_moore(1)

    @pytest.mark.parametrize("m", range(2, 120))
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_localization_gives_p_part(self, m, p):
        r = vp(m, p)
        expected = localize(make_group(0, [p**r]), p) if r else make_group(0, [])
        assert localize(pi6_moore(m), p) == expected


class TestDataFile:
    def test_round_trip_is_bit_exact(self):
        table = default_table()
        dumped = "\n".join(table.dump_lines())
        reloaded = PiTable.from_text(dumped)
        assert reloaded.records == table.records
        assert reloaded.dump_lines() == table.dump_lines()

    def test_duplicate_records_rejected(self):
        text = "S3 | 6 | Z_12 | a\nS3 | 6 | Z_12 | b\n"
        with pytest.raises(ValueError):
            PiTable.from_text(text)

    @pytest.mark.parametrize("degree", ["x", "2.5", ""])
    def test_a_degree_that_is_no_integer_names_its_line(self, degree):
        line = f"S3 | {degree} | Z_12 | a"
        message = f"table line 3 {line!r}: degree {degree!r} is not a nonnegative integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            PiTable.from_text(f"# note\nS3 | 6 | Z_12 | ok\n{line}\n")

    @pytest.mark.parametrize(
        "text,error",
        [
            ("S3 | 6 | Z_12 | a\n\nS3 | x | Z_12 | a\n",
             "table line 3 'S3 | x | Z_12 | a': degree 'x' is not a nonnegative integer"),
            ("S3 | 6 | Z_12 | a\nS3 | 6 | Z_2 | b\n",
             "duplicate table entry: 'S3 | 6 | Z_12 | a' and 'S3 | 6 | Z_2 | b'"),
        ],
        ids=["degree", "duplicate"],
    )
    def test_a_refused_file_names_its_path_and_lines(self, tmp_path, text, error):
        path = tmp_path / "override.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as refusal:
            PiTable.load(path)
        assert str(refusal.value) == f"{path}: {error}"

    def test_malformed_lines_rejected(self):
        with pytest.raises(ValueError):
            PiTable.from_text("S3 | 6 | Z_12\n")
        with pytest.raises(ValueError):
            PiTable.from_text("Q8 | 6 | Z_12 | src\n")

    @pytest.mark.parametrize(
        "alias,canonical",
        [("SU2", "S3"), ("Sp1", "S3"), ("Spin5", "Sp2"), ("Spin6", "SU4")],
    )
    def test_alias_rows_rejected(self, alias, canonical):
        # No lookup would ever read such a row: the alias resolves first.
        with pytest.raises(ValueError, match=f"{alias} is an alias: key its rows {canonical}"):
            PiTable.from_text(f"{alias} | 3 | Z_7 | mine\n")

    @pytest.mark.parametrize(
        "key,first",
        [("SU(n):n>=2", 3), ("Sp(n):n>=1", 2), ("Spin(n):n>=5", 7), ("Spin(n):n>=6", 7)],
    )
    def test_family_rows_reaching_an_alias_rejected(self, key, first):
        # The alias rank reads its canonical key's rows, never this one.
        with pytest.raises(ValueError, match=rf"covers alias ranks: start it at n>={first}"):
            PiTable.from_text(f"{key} | 3 | Z_7 | mine\n")

    @pytest.mark.parametrize(
        "key,group", [("SU(n):n>=3", "SU3"), ("Sp(n):n>=2", "Sp2"), ("Spin(n):n>=7", "Spin7")]
    )
    def test_family_rows_from_the_first_own_rank_load(self, key, group):
        table = PiTable.from_text(f"{key} | 3 | Z_7 | mine\n")
        assert table.lie_record(LieGroupId.parse(group), 3).key == key

    def test_env_override(self, tmp_path, monkeypatch):
        alt = tmp_path / "tiny.txt"
        alt.write_text("S3 | 6 | Z_12 | test source\n", encoding="utf-8")
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        from bundlegauge import tables as tables_module

        tables_module._cached_table.cache_clear()
        try:
            table = tables_module.default_table()
            assert len(table.records) == 1
            assert table.sphere_record(3, 6).group == make_group(0, [12])
            with pytest.raises(UnknownValueError):
                table.sphere_record(3, 7)
        finally:
            monkeypatch.delenv("BUNDLEGAUGE_TABLES")
            tables_module._cached_table.cache_clear()

    def test_override_change_takes_effect_on_next_call(self, tmp_path, monkeypatch):
        one = tmp_path / "one.txt"
        one.write_text("S3 | 6 | Z_12 | one\n", encoding="utf-8")
        two = tmp_path / "two.txt"
        two.write_text("S3 | 6 | Z_12 | two\nS3 | 7 | Z_2 | two\n", encoding="utf-8")
        monkeypatch.delenv("BUNDLEGAUGE_TABLES", raising=False)
        packaged = default_table()
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(one))
        assert [r.source for r in default_table().records] == ["one"]
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(two))
        assert [r.source for r in default_table().records] == ["two", "two"]
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(one))
        assert [r.source for r in default_table().records] == ["one"]
        monkeypatch.delenv("BUNDLEGAUGE_TABLES")
        assert default_table() is packaged
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", "")
        assert default_table() is packaged
        assert len(packaged.records) > 100

    def test_override_reaches_the_operations(self, tmp_path, monkeypatch):
        from bundlegauge.bundles import classify_bundles
        from bundlegauge.gauge import pi_pointed_gauge_m0, s7_gauge_equivalent
        from bundlegauge.manifolds import normalize

        alt = tmp_path / "su4.txt"
        alt.write_text("SU4 | 6 | 0 | t\n", encoding="utf-8")
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        tables_module._cached_table.cache_clear()
        try:
            su4 = LieGroupId("SU", 4)
            assert classify_bundles(su4, normalize(0, 5)) == make_group(0, [5])
            with pytest.raises(UnknownValueError):  # no pi_3 or pi_4 row
                pi_pointed_gauge_m0(su4, 0, 0, 0)
            with pytest.raises(UnknownValueError, match="SU\\(2\\)"):
                s7_gauge_equivalent(LieGroupId("SU", 2), 0, 1)
        finally:
            monkeypatch.delenv("BUNDLEGAUGE_TABLES")
            tables_module._cached_table.cache_clear()

    def test_override_with_a_sphere_below_s1_is_refused(self, tmp_path, monkeypatch):
        # sphere_record refuses n < 1, so no lookup would ever read the row.
        from bundlegauge.cli import EXIT_USAGE, run

        alt = tmp_path / "s0.txt"
        alt.write_text("S0 | 0 | Z_2 | mine\n", encoding="utf-8")
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        tables_module._cached_table.cache_clear()
        try:
            with pytest.raises(ValueError, match="sphere key S0 is never read"):
                default_table()
            result = run(["tables", "lookup", "--space", "S3", "--i", "3"])
            assert result.exit_code == EXIT_USAGE
            assert "sphere key S0" in result.payload["error"]
        finally:
            monkeypatch.delenv("BUNDLEGAUGE_TABLES")
            tables_module._cached_table.cache_clear()

    def test_default_table_is_one_object(self):
        assert default_table() is default_table()

    def test_warm_call_reads_no_file(self, monkeypatch):
        monkeypatch.delenv("BUNDLEGAUGE_TABLES", raising=False)
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        loader = tables_module.__spec__.loader
        monkeypatch.setattr(loader, "get_data", counting("get_data", loader.get_data))
        for name in ("load", "from_text"):
            monkeypatch.setattr(PiTable, name, staticmethod(counting(name, getattr(PiTable, name))))
        tables_module._cached_table.cache_clear()
        try:
            default_table()
            assert calls == ["get_data", "from_text"]  # the counters see a cold call
            calls.clear()
            for _ in range(3):
                default_table()
            assert calls == []
        finally:
            tables_module._cached_table.cache_clear()


RULE_SOURCES = {"connectivity", "Hurewicz", "connected", "simply connected",
                "pi_2 of a Lie group vanishes"}


class TestRules:
    """Connectivity, Hurewicz and pi_0 = pi_1 = pi_2 = 0 for a Lie group
    fill the low degrees of each key a table holds, and check its rows."""

    @pytest.mark.parametrize(
        "line,rule",
        [
            ("G2 | 2 | Z_2 | x", "pi_2 of a Lie group vanishes"),
            ("S4 | 1 | Z | x", "connectivity"),
            ("S5 | 5 | Z_2 | x", "Hurewicz"),
            ("Spin(n):n>=10 | 1 | Z | x", "simply connected"),
        ],
    )
    def test_a_row_that_contradicts_a_rule_is_refused(self, line, rule):
        message = f"table line '{line}' contradicts the rule '{rule}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            PiTable.from_text(f"S3 | 6 | Z_12 | ok\n{line}\n")

    def test_a_row_that_agrees_with_a_rule_wins(self):
        table = PiTable.from_text("S3 | 3 | Z | mine\n")
        assert table.sphere_record(3, 3).source == "mine"
        assert table.sphere_record(3, 2).source == "connectivity"
        assert table.dump_lines() == ["S3 | 3 | Z | mine"]

    def test_packaged_keys_answer_low_degrees_by_rule(self):
        table = default_table()
        heads = {}
        for rec in table.records:
            head = heads.setdefault(rec.family or rec.key, rec)
            if rec.min_n is not None and rec.min_n < head.min_n:
                heads[rec.family or rec.key] = rec
        spheres = [k for k in heads if k[0] == "S" and k[1:].isdecimal()]
        assert spheres == ["S1", "S3", "S4", "S5", "S6", "S7"]
        for key in spheres:
            n = int(key[1:])
            for i in range(n + 1):
                rec = table.sphere_record(n, i)
                expected = "Hurewicz" if i == n else "connectivity"
                assert (rec.key, rec.source) == (key, "classical" if n == 1 else expected)
                assert rec.group == (make_group(1, []) if i == n else make_group(0, []))
        groups = {k: h for k, h in heads.items() if k not in spheres}
        assert len(groups) == 13 and groups["Spin"].key == "Spin(n):n>=10"
        sources = ("connected", "simply connected", "pi_2 of a Lie group vanishes")
        for h in groups.values():
            g = LieGroupId(h.family, h.min_n) if h.family else LieGroupId.parse(h.key)
            for i, source in enumerate(sources):
                rec = table.lie_record(g, i)
                assert (rec.key, rec.min_n, rec.source) == (h.key, h.min_n, source)
                assert rec.group.is_trivial

    def test_a_derived_record_is_one_object(self):
        table = default_table()
        assert table.lie_record(LieGroupId("Spin", 12), 1) is table.lie_record(
            LieGroupId("Spin", 10), 1
        )
        assert table.sphere_record(7, 3) is table.sphere_record(7, 3)

    def test_no_packaged_row_restates_a_rule(self):
        assert not [r.line() for r in default_table().records if r.source in RULE_SOURCES]

    def test_an_override_gets_the_rules_for_its_own_keys_only(self):
        table = PiTable.from_text("SU4 | 6 | 0 | t\n")
        su4 = LieGroupId("SU", 4)
        assert [table.lie_record(su4, i).source for i in range(3)] == [
            "connected", "simply connected", "pi_2 of a Lie group vanishes"
        ]
        assert table.lie_record(LieGroupId("Spin", 6), 1).key == "SU4"
        with pytest.raises(UnknownValueError):
            table.lie_record(su4, 3)
        with pytest.raises(UnknownValueError, match=re.escape("pi_0(SU(5))")):
            table.lie_record(LieGroupId("SU", 5), 0)
        with pytest.raises(UnknownValueError, match=re.escape("pi_2(S^2)")):
            table.sphere_record(2, 2)
        assert table.dump_lines() == ["SU4 | 6 | 0 | t"]

    def test_a_contradicting_override_is_a_usage_error(self, tmp_path, monkeypatch):
        from bundlegauge.cli import EXIT_USAGE, run

        alt = tmp_path / "su4.txt"
        alt.write_text("SU4 | 1 | Z_2 | mine\n", encoding="utf-8")
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        tables_module._cached_table.cache_clear()
        try:
            result = run(["tables", "lookup", "--group", "SU4", "--i", "3"])
            assert result.exit_code == EXIT_USAGE
            assert "contradicts the rule 'simply connected'" in result.payload["error"]
        finally:
            monkeypatch.delenv("BUNDLEGAUGE_TABLES")
            tables_module._cached_table.cache_clear()

    def test_sphere_keys_stop_where_the_rules_stay_small(self):
        top = tables_module._MAX_SPHERE
        table = PiTable.from_text(f"S{top} | {top + 3} | Z_2 | x\n")
        assert table.sphere_record(top, top - 1).source == "connectivity"
        with pytest.raises(ValueError, match=f"sphere key S{top + 1} is too large"):
            PiTable.from_text(f"S{top + 1} | 0 | 0 | x\n")


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: LieGroupId("SU"), "SU requires a rank parameter"),
        (lambda: PiTable.from_text("S3 | -1 | 0 | x\n"), "degree '-1' is not a nonnegative"),
        (lambda: PiTable.from_text("S3 | 3 | Z_25 @ (5) | x\n"),
         "table entries must be integral"),
        # A key is loaded only when a lookup reads it as written.
        (lambda: PiTable.from_text("S03 | 3 | Z | x\n"), "S03 is an alias: key its rows S3"),
        (lambda: PiTable.from_text("SU(4) | 3 | Z | x\n"),
         r"SU\(4\) is an alias: key its rows SU4"),
        (lambda: default_table().sphere_record(3, -1), "sphere lookup needs n >= 1, i >= 0"),
        (lambda: default_table().lie_record(LieGroupId("SU", 4), -1),
         "degree must be nonnegative"),
    ],
)
def test_refusals(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()
