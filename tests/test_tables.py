import pytest

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
