import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import bundlegauge
from bundlegauge import tables as tables_module
from bundlegauge.abelian import localize, make_group, vp
from bundlegauge.errors import UnknownValueError
from bundlegauge.tables import (
    LieGroupId,
    PiTable,
    default_table,
    pi6,
    pi6_moore,
    pi_lie,
    pi_sphere,
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
        assert pi_sphere(3, 6) == make_group(0, [12])
        assert pi_sphere(3, 9) == make_group(0, [3])
        assert pi_sphere(4, 6) == make_group(0, [2])
        assert pi_sphere(4, 7) == make_group(1, [12])
        assert pi_sphere(5, 8) == make_group(0, [24])

    def test_below_connectivity(self):
        assert pi_sphere(7, 3).is_trivial

    def test_gap_is_unknown_not_a_guess(self):
        with pytest.raises(UnknownValueError):
            pi_sphere(3, 25)
        with pytest.raises(UnknownValueError):
            pi_sphere(2, 2)


class TestLieLookups:
    def test_sp2_row(self):
        g = LieGroupId("Sp", 2)
        assert pi_lie(g, 3) == make_group(1, [])
        assert pi_lie(g, 4) == make_group(0, [2])
        assert pi_lie(g, 7) == make_group(1, [])

    def test_pi2_vanishes_for_every_family(self):
        for g in [
            LieGroupId("SU", 2),
            LieGroupId("SU", 9),
            LieGroupId("Sp", 3),
            LieGroupId("Spin", 11),
            LieGroupId("G2"),
            LieGroupId("E8"),
        ]:
            assert pi_lie(g, 2).is_trivial

    def test_spin8_pi7_has_rank_two(self):
        assert pi_lie(LieGroupId("Spin", 8), 7) == make_group(2, [])

    def test_family_records_use_most_specific_bound(self):
        assert pi_lie(LieGroupId("Spin", 12), 9) == make_group(0, [2])
        with pytest.raises(UnknownValueError):
            pi_lie(LieGroupId("Spin", 10), 9)

    def test_aliased_lookups(self):
        assert pi_lie(LieGroupId("Spin", 5), 4) == make_group(0, [2])
        assert pi_lie(LieGroupId("Spin", 6), 8) == make_group(0, [24])
        assert pi_lie(LieGroupId("Sp", 1), 6) == make_group(0, [12])

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
            assert table.sphere(3, 6) == make_group(0, [12])
            with pytest.raises(UnknownValueError):
                table.sphere(3, 7)
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

    def test_packaged_table_loads_from_a_zip_import(self, tmp_path):
        package = Path(bundlegauge.__file__).parent
        archive = tmp_path / "bg.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zf.write(path, Path("bundlegauge") / path.relative_to(package))
        proc = subprocess.run(
            [sys.executable, "-m", "bundlegauge", "--json", "classify",
             "--group", "SU4", "--l", "0", "--m", "5"],
            capture_output=True, text=True, cwd=tmp_path,
            env={k: v for k, v in os.environ.items() if k != "BUNDLEGAUGE_TABLES"}
            | {"PYTHONPATH": str(archive)},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["result"]["set"] == "Z_5"


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: LieGroupId("SU"), "SU requires a rank parameter"),
        (lambda: PiTable.from_text("S3 | -1 | 0 | x\n"), "negative degree in table line"),
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
