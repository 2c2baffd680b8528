import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from bundlegauge import cli
from bundlegauge.bundles import reduce_class
from bundlegauge.cli import (
    EXIT_OK,
    EXIT_OUT_OF_SCOPE,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    run,
)
from bundlegauge.gauge import GaugeQuery, pi_of_expr, run_query
from bundlegauge.manifolds import normalize
from bundlegauge.tables import RULES, LieGroupId

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "result-schema.json").read_text()
)


def ok(argv):
    result = run(argv)
    assert result.exit_code == EXIT_OK, result.text
    jsonschema.validate(result.payload, SCHEMA)
    return result


class TestClassify:
    def test_torsion_base(self):
        result = ok(["classify", "--group", "Sp2", "--l", "3", "--m", "5"])
        assert result.payload["result"]["set"] == "Z_5"
        assert result.payload["result"]["size"] == 5

    def test_m0_is_infinite(self):
        result = ok(["classify", "--group", "SU4", "--l", "3", "--m", "0"])
        assert result.payload["result"]["set"] == "Z"
        assert result.payload["result"]["size"] is None

    def test_reduction(self):
        result = ok(["classify", "--group", "SU4", "--l", "0", "--m", "5", "--k", "12"])
        assert result.payload["result"]["k"] == 2

    def test_out_of_scope_exit_code(self):
        result = run(["classify", "--group", "SU2", "--l", "0", "--m", "0"])
        assert result.exit_code == EXIT_OUT_OF_SCOPE
        assert "pi_6(SU(2)) = Z_12" in result.text
        assert result.payload["status"] == "out-of-scope"


class TestManifoldCommands:
    def test_equiv(self):
        result = ok(["manifold", "equiv", "--a", "3,0", "--b", "15,0"])
        assert result.payload["result"]["equivalent"] is True
        assert result.payload["theorem"] == "James-Whitehead criterion"
        assert result.payload["citations"] == ["James-Whitehead (1954)"]
        assert "James-Whitehead" not in result.payload["result"]["reason"]

    def test_homology(self):
        result = ok(["manifold", "homology", "--l", "3", "--m", "6"])
        assert result.payload["result"]["degrees"] == [
            "Z", "0", "0", "Z_6", "0", "0", "0", "Z",
        ]

    def test_suspend_integral(self):
        result = ok(["manifold", "suspend", "--l", "24", "--m", "0"])
        assert result.payload["result"]["expression"] == "S^4 v S^5 v S^8"

    def test_suspend_plocal(self):
        result = ok(["manifold", "suspend", "--l", "0", "--m", "50", "--p", "5"])
        assert result.payload["result"]["expression"] == "P^5(25) v S^8 @ (5)"

    def test_suspend_torsion_without_prime(self):
        result = run(["manifold", "suspend", "--l", "0", "--m", "6"])
        assert result.exit_code == EXIT_OUT_OF_SCOPE


class TestGaugeCommands:
    def test_decompose_pinned_string(self):
        result = ok(
            ["gauge", "decompose", "--group", "SU4", "--l", "12", "--m", "0", "--k", "1"]
        )
        assert (
            result.payload["result"]["expression"]
            == "G^1(S^4) x O^3[SU(4)] x O^7[SU(4)]"
        )
        assert result.payload["caveats"]

    def test_decompose_plocal_loops_field(self):
        result = ok(
            ["gauge", "decompose", "--group", "Sp2", "--l", "0", "--m", "25",
             "--k", "5", "--p", "5"]
        )
        assert result.payload["result"]["loops"] == 1
        assert "X_5" in result.payload["result"]["expression"]

    def test_pi_m0(self):
        result = ok(
            ["gauge", "pi", "--group", "Sp2", "--l", "0", "--m", "0",
             "--k", "1", "--n", "0"]
        )
        assert result.payload["result"]["group"] == "Z + Z + Z_2"

    def test_pi_plocal(self):
        result = ok(
            ["gauge", "pi", "--group", "Spin8", "--l", "0", "--m", "5",
             "--k", "0", "--n", "0", "--p", "5"]
        )
        assert result.payload["result"]["group"] == "Z_(5) + Z_(5) + Z_5"
        assert result.payload["citations"]

    def test_pi_unpointed_rows(self):
        result = ok(
            ["gauge", "pi", "--group", "Spin8", "--l", "0", "--m", "0", "--unpointed"]
        )
        assert result.payload["result"]["group"] == "Z + Z + Z"

    @pytest.mark.parametrize(
        "argv",
        [
            "gauge pi --group SU4 --l 0 --m 0 --n 1 --p 7",
            "gauge pi --group SU4 --l 0 --m 0 --p 5 --unpointed",
            "gauge decompose --group SU4 --l 0 --m 1 --p 5",
        ],
    )
    def test_localizing_an_integral_splitting_is_out_of_scope(self, argv):
        result = run(["--json", *argv.split()])
        assert result.exit_code == EXIT_OUT_OF_SCOPE
        assert result.payload["status"] == "out-of-scope"

    def test_pi_unpointed_reads_the_class_mod_m(self):
        argv = ["--json", "gauge", "pi", "--group", "SU4", "--l", "0", "--m", "25",
                "--p", "5", "--unpointed"]
        trivial = ok(argv).payload
        assert trivial["result"]["group"] == "Z_(5) + Z_25"
        assert ok([*argv, "--k", "25"]).payload == trivial

    @pytest.mark.parametrize(
        "group,l,m,k,n,p,looped",
        [
            ("SU4", 0, 0, 0, 0, None, False),  # m = 0, twist 0
            ("Sp2", 5, 0, 3, 1, None, False),  # m = 0, twist 5: a symbolic summand
            ("SU4", 0, 6, 0, 0, 5, False),  # v_p(m) = 0
            ("Spin8", 0, 5, 0, 0, 5, False),  # v_p(m) = 1, trivial class
            ("SU4", 2, 49, 1, 0, 7, False),  # k != 0: looped without --looped
            ("SU4", 2, 49, 3, 1, 7, True),
            ("Sp2", 0, 25, 0, 1, 5, True),  # trivial class, looped on request
        ],
    )
    def test_pi_reads_off_run_query(self, group, l, m, k, n, p, looped):
        argv = ["--json", "gauge", "pi", "--group", group, "--l", str(l), "--m", str(m),
                "--k", str(k), "--n", str(n)]
        argv += [] if p is None else ["--p", str(p)]
        argv += ["--looped"] if looped else []
        payload = ok(argv).payload
        bundle = reduce_class(LieGroupId.parse(group), normalize(l, m), k)
        query = GaugeQuery(bundle, pointed=True, looped=1 if looped else None,
                           locality="integral" if p is None else p)
        decomposition = run_query(query)
        value = pi_of_expr(decomposition.expr, n)
        assert payload["result"]["group"] == value.group.render()
        assert payload["theorem"] == RULES[decomposition.rule][0]
        assert payload["citations"] == list(value.sources)
        assert ("symbolic" in payload["result"]) == (p is None)

    def test_pi_table_gap_exit_code(self):
        result = run(
            ["gauge", "pi", "--group", "SU4", "--l", "0", "--m", "0", "--n", "3"]
        )
        assert result.exit_code == EXIT_UNKNOWN
        assert result.payload["status"] == "unknown"

    def test_equiv_s7(self):
        result = ok(
            ["gauge", "equiv-s7", "--group", "SU2", "--k", "1", "--kp", "2"]
        )
        assert result.payload["result"]["verdict"] == "equivalent"

    @pytest.mark.parametrize(
        "group,theorem,citations",
        [
            ("E8", "gauge group of the unique bundle over S^7", []),
            ("SU2", "gcd rule for gauge groups over S^7",
             ["Lang (1973)", "Theriault (2010)"]),
        ],
    )
    def test_equiv_s7_names_the_rule_that_decided(self, group, theorem, citations):
        payload = ok(
            ["gauge", "equiv-s7", "--group", group, "--k", "2", "--kp", "3"]
        ).payload
        assert (payload["theorem"], payload["citations"]) == (theorem, citations)

    def test_equiv_s7_out_of_scope(self):
        result = run(
            ["gauge", "equiv-s7", "--group", "SU3", "--k", "0", "--kp", "3",
             "--locality", "2"]
        )
        assert result.exit_code == EXIT_OUT_OF_SCOPE

    @pytest.mark.parametrize(
        "group,locality", [("G2", "integral"), ("SU2", "5"), ("SU3", "2")]
    )
    def test_equiv_s7_refusal_names_no_rule(self, group, locality):
        result = run(
            ["--json", "gauge", "equiv-s7", "--group", group, "--k", "0", "--kp", "1",
             "--locality", locality]
        )
        assert result.exit_code == EXIT_OUT_OF_SCOPE
        assert (result.payload["theorem"], result.payload["citations"]) == (None, [])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            ("gauge decompose --group SU4 --l 0 --m 0 --looped", "--looped"),
            ("gauge decompose --group SU4 --l 0 --m 1 --pointed", "--pointed"),
            ("gauge decompose --group SU4 --l 0 --m 1 --looped", "--looped"),
            ("gauge pi --group SU4 --l 0 --m 0 --n 1 --looped", "--looped"),
            ("gauge pi --group SU4 --l 0 --m 0 --unpointed --looped", "--looped"),
            ("gauge pi --group SU4 --l 0 --m 25 --p 5 --unpointed --looped", "--looped"),
        ],
    )
    def test_flag_that_does_not_apply_is_a_usage_error(self, argv, flag):
        result = run(["--json", *argv.split()])
        assert result.exit_code == EXIT_USAGE
        assert result.payload["status"] == "usage-error"
        assert flag in result.payload["error"]

    def test_negative_degree_is_a_usage_error_pointed_or_not(self):
        argv = ["--json", "gauge", "pi", "--group", "SU4", "--l", "0", "--m", "0",
                "--n", "-1"]
        for extra in ([], ["--unpointed"]):
            result = run([*argv, *extra])
            assert result.exit_code == EXIT_USAGE, extra
            assert result.payload["error"] == "homotopy degree must be nonnegative"

    def test_looped_decompose_needs_pointed(self):
        argv = ["--json", "gauge", "decompose", "--group", "SU4", "--l", "0",
                "--m", "10", "--k", "0", "--p", "7", "--looped"]
        result = run(argv)
        assert result.exit_code == EXIT_USAGE
        assert result.payload["status"] == "usage-error"
        assert "looped" in result.payload["error"]
        assert "pointed" in result.payload["error"]
        assert ok([*argv, "--pointed"]).payload["result"]["loops"] == 1

    def test_equiv_su5(self):
        result = ok(["gauge", "equiv-su5", "--k", "1", "--kp", "121"])
        assert result.payload["result"]["verdict"] == "equivalent-locally"


class TestTablesAndOracle:
    def test_sphere_lookup(self):
        result = ok(["tables", "lookup", "--space", "S3", "--i", "6"])
        assert result.payload["result"]["group"] == "Z_12"
        assert "Toda" in result.payload["result"]["source"]

    def test_lie_lookup(self):
        result = ok(["tables", "lookup", "--group", "Sp2", "--i", "4"])
        assert result.payload["result"]["group"] == "Z_2"

    def test_moore_lookup(self):
        result = ok(["tables", "lookup", "--moore", "8"])
        assert result.payload["result"]["group"] == "Z_2 + Z_4 + Z_8"

    @pytest.mark.parametrize("space", ["S", "S3x", "X3"])
    def test_malformed_sphere_key_is_explained(self, space):
        result = run(["--json", "tables", "lookup", "--space", space, "--i", "3"])
        assert result.exit_code == EXIT_USAGE
        assert result.payload["error"] == "sphere keys look like S3, S4, ..."

    def test_lookup_gap_exit_code(self):
        result = run(["tables", "lookup", "--space", "S3", "--i", "25"])
        assert result.exit_code == EXIT_UNKNOWN

    def test_lookup_needs_exactly_one_target(self):
        result = run(["tables", "lookup", "--space", "S3", "--group", "Sp2"])
        assert result.exit_code == EXIT_USAGE

    def test_oracle_manifold(self):
        result = ok(["oracle", "homology", "--l", "3", "--m", "6"])
        assert result.payload["result"]["degrees"][3] == "Z_6"

    def test_oracle_custom_complex(self, tmp_path):
        path = tmp_path / "complex.txt"
        path.write_text(
            "cells: 1 1 1\nboundary 2:\n2\n",
            encoding="utf-8",
        )
        result = ok(["oracle", "homology", "--complex", str(path)])
        assert result.payload["result"]["degrees"] == ["Z", "Z_2", "0"]

    @pytest.mark.parametrize(
        "text,repeated",
        [
            ("cells: 1 1\nboundary 1:\n0\nboundary 1:\n5\n", "'boundary 1:'"),
            ("cells: 1 1\ncells: 1 1 1\nboundary 2:\n2\n", "'cells: 1 1 1'"),
        ],
    )
    def test_oracle_complex_with_a_repeated_line(self, tmp_path, text, repeated):
        path = tmp_path / "complex.txt"
        path.write_text(text, encoding="utf-8")
        result = run(["oracle", "homology", "--complex", str(path)])
        assert result.exit_code == EXIT_USAGE
        assert result.payload["status"] == "usage-error"
        assert repeated in result.payload["error"]

    def test_oracle_complex_with_no_cell_counts(self, tmp_path):
        path = tmp_path / "complex.txt"
        path.write_text("cells:\n", encoding="utf-8")
        result = run(["--json", "oracle", "homology", "--complex", str(path)])
        assert result.exit_code == EXIT_USAGE == 1
        assert result.payload["status"] == "usage-error"
        assert "no counts" in result.payload["error"]

    def test_oracle_missing_arguments(self):
        result = run(["oracle", "homology"])
        assert result.exit_code == EXIT_USAGE


class TestHarness:
    def test_unknown_subcommand_is_usage_error(self):
        result = run(["frobnicate"])
        assert result.exit_code == EXIT_USAGE

    def test_missing_subcommand(self):
        result = run([])
        assert result.exit_code == EXIT_USAGE

    def test_payload_schema_keys(self):
        result = run(["classify", "--group", "Sp2", "--l", "3", "--m", "5"])
        for key in ("command", "status", "result", "caveats", "theorem", "citations"):
            assert key in result.payload

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--group", "SU2", "--l", "0", "--m", "0"],
            ["tables", "lookup", "--space", "S3", "--i", "25"],
            ["frobnicate"],
            ["selftest"],
            ["gauge", "equiv-s7", "--group", "G2", "--k", "0", "--kp", "1"],
        ],
    )
    def test_every_payload_validates_against_the_schema(self, argv):
        result = run(argv)
        jsonschema.validate(result.payload, SCHEMA)

    def test_top_level_options_take_no_abbreviation(self, capsys):
        # main() reads --json off argv, so a prefix such as --jso must not
        # parse as it; subcommand options keep their abbreviations.
        argv = ["--jso", "classify", "--group", "SU4", "--l", "0", "--m", "5"]
        assert cli.main(argv) == EXIT_USAGE
        assert "unrecognized arguments: --jso" in capsys.readouterr().out
        assert run(argv).payload["status"] == "usage-error"
        assert ok(["classify", "--gr", "SU4", "--l", "0", "--m", "5"]).text == (
            run(["classify", "--group", "SU4", "--l", "0", "--m", "5"]).text)

    def test_json_mode_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bundlegauge", "--json", "classify",
             "--group", "Sp2", "--l", "3", "--m", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["result"]["set"] == "Z_5"

    def test_exit_code_propagates_through_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bundlegauge", "classify",
             "--group", "SU2", "--l", "0", "--m", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["classify", "--group", "Sp2", "--l", "3", "--m", "5"], 0),
            (["classify", "--group", "SU2", "--l", "0", "--m", "0"], 2),
        ],
    )
    def test_reader_that_leaves_early_gets_no_traceback(self, argv, code):
        # Closing the pipe before the child writes breaks every write of
        # its answer, whether stdout is buffered or not.
        proc = subprocess.Popen(
            [sys.executable, "-m", "bundlegauge", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""  # no traceback, and no other complaint either
        assert proc.returncode == code


# Per subcommand: one answered argv, then refusals raised by argparse
# (bad or missing arguments), by the command itself, and by the theorems.
COMMAND_CASES = {
    "classify": (
        "classify --group Sp2 --l 3 --m 5",
        ["classify --group Sp2 --l 3", "classify --group Sp2 --l 3 --m 5 extra",
         "classify --group Foo --l 0 --m 0", "classify --group G2 --l 0 --m 0"],
    ),
    "manifold equiv": (
        "manifold equiv --a 3,0 --b 15,0",
        ["manifold equiv --a 3,0", "manifold equiv --a 3 --b 15,0"],
    ),
    "manifold homology": (
        "manifold homology --l 3 --m 6", ["manifold homology --l x --m 6"],
    ),
    "manifold suspend": (
        "manifold suspend --l 0 --m 50 --p 5",
        ["manifold suspend --l 0", "manifold suspend --l 0 --m 50 --p 3"],
    ),
    "gauge decompose": (
        "gauge decompose --group SU4 --l 12 --m 0 --k 1",
        ["gauge decompose --group SU4", "gauge decompose --group SU4 --l 0 --m 25"],
    ),
    "gauge pi": (
        "gauge pi --group SU4 --l 0 --m 0",
        ["gauge pi --group SU4 --l 0 --m 5", "gauge pi --group SU4 --l 0 --m 1",
         "gauge pi --group SU4 --l 0 --m 0 --n 3"],
    ),
    "gauge equiv-s7": (
        "gauge equiv-s7 --group SU2 --k 1 --kp 2",
        ["gauge equiv-s7 --group G2 --k 0 --kp 1 --locality p-adic",
         "gauge equiv-s7 --group G2 --k 0 --kp 1"],
    ),
    "gauge equiv-su5": ("gauge equiv-su5 --k 1 --kp 121", ["gauge equiv-su5 --k 1"]),
    "tables lookup": (
        "tables lookup --space S3 --i 6",
        ["tables lookup --space S3", "tables lookup --space S3 --i 25"],
    ),
    "oracle homology": ("oracle homology --l 3 --m 6", ["oracle homology --l 3"]),
    "selftest": ("selftest", ["selftest --quick"]),
}


class TestCommandField:
    @pytest.mark.parametrize("name", sorted(COMMAND_CASES))
    def test_errors_name_the_command_as_answers_do(self, name):
        answered, refusals = COMMAND_CASES[name]
        result = run(["--json", *answered.split()])
        assert result.exit_code == EXIT_OK
        assert result.payload["command"] == name
        for argv in refusals:
            result = run(["--json", *argv.split()])
            assert result.exit_code != EXIT_OK, argv
            assert result.payload["command"] == name, argv

    @pytest.mark.parametrize("argv", ["", "manifold", "gauge frobnicate", "frobnicate"])
    def test_no_parsed_subcommand_names_none(self, argv):
        result = run(["--json", *argv.split()])
        assert result.exit_code == EXIT_USAGE
        assert result.payload["command"] == ""


# Answers alternating with refusals of every exit code: argparse errors,
# refusals raised inside a command, out of scope and table gaps.
SHARED_PARSER_SEQUENCE = [
    "classify --group Sp2 --l 3 --m 5", "classify --group Sp2 --l 3",
    "gauge pi --group SU4 --l 0 --m 0", "classify --group SU2 --l 0 --m 0",
    "tables lookup --space S3 --i 6", "tables lookup --space S3 --i 25",
    "gauge decompose --group SU4 --l 12 --m 0 --k 1", "frobnicate",
    "manifold equiv --a 3,0 --b 15,0", "gauge pi --group SU4 --l 0 --m 0 --n 3",
    "manifold suspend --l 0 --m 50 --p 5", "gauge equiv-s7 --group G2 --k 0 --kp 1",
    "classify --group Sp2 --l 3 --m 5", "classify --group Sp2 --l 3 --m 5 extra",
    "gauge decompose --group SU4 --l 12 --m 0 --k 1", "manifold",
    "tables lookup --space S3 --i 6", "gauge equiv-s7 --group G2 --k 0 --kp 1 --locality p-adic",
]


class TestSharedParser:
    def test_one_parser_answers_as_a_fresh_one(self, monkeypatch):
        builds = []
        fresh_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or fresh_parser())
        cli._shared_parser.cache_clear()
        shared = [run(["--json", *argv.split()]) for argv in SHARED_PARSER_SEQUENCE]
        assert len(builds) == 1
        assert {r.exit_code for r in shared} == {
            EXIT_OK, EXIT_USAGE, EXIT_OUT_OF_SCOPE, EXIT_UNKNOWN}
        for argv, result in zip(SHARED_PARSER_SEQUENCE, shared):
            cli._shared_parser.cache_clear()
            fresh = run(["--json", *argv.split()])
            assert (result.exit_code, result.payload) == (fresh.exit_code, fresh.payload), argv
        assert len(builds) == 1 + len(SHARED_PARSER_SEQUENCE)


def _traced_modules():
    """The modules that bench/tracing.py rebinds right after it imports
    bundlegauge.cli: each must already be loaded by then."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({module for module, _, _ in tracing.TARGETS})


class TestStartup:
    # Each of these costs start-up time on every CLI call and no answer
    # needs it: dataclasses pulls in inspect, ast and dis; selftest (and
    # random with it) serves one subcommand.
    NOT_AT_STARTUP = ("dataclasses", "inspect", "typing", "importlib.resources",
                      "pathlib", "random", "bundlegauge.selftest")

    def test_cli_import_loads_only_what_an_answer_needs(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, bundlegauge.cli; print('\\n'.join(sys.modules))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        loaded = set(proc.stdout.split())
        assert [m for m in self.NOT_AT_STARTUP if m in loaded] == []
        assert [m for m in _traced_modules() if m not in loaded] == []
