"""Each submodule is executed on first use: a CLI call runs only the
modules its subcommand needs, and the public API is unchanged."""

import json
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import bundlegauge
from bundlegauge import cli

SRC = Path(bundlegauge.__file__).resolve().parents[1]
TRACING = SRC.parent / "bench" / "tracing.py"

# A registered module that no attribute read has executed yet keeps
# LazyLoader's module subclass.
UNEXECUTED_AFTER_RUN = """
import json, sys, types
from bundlegauge import cli
result = cli.run(sys.argv[1:])
print(json.dumps({"exit": result.exit_code, "unexecuted": sorted(
    name.partition(".")[2] for name, module in sys.modules.items()
    if name.startswith("bundlegauge.") and type(module) is not types.ModuleType)}))
"""

# bench/tracing.py loaded as test_cli._traced_modules loads it.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from bundlegauge import cli
result = cli.run(sys.argv[2:])
calls = {name: s["calls"] for name, s in tracer.summary().items()}
print(json.dumps({"exit": result.exit_code, "calls": calls}))
"""


def _python(*args: str, path: Path = SRC, cwd: Path | None = None) -> dict:
    """The JSON that `python *args` prints, with path as the PYTHONPATH."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, check=True, cwd=cwd,
        env={k: v for k, v in os.environ.items() if k != "BUNDLEGAUGE_TABLES"}
        | {"PYTHONPATH": str(path)},
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv,code,unexecuted",
    [
        ("tables lookup --group=SU4 --i=3", 0,
         ["bundles", "gauge", "manifolds", "oracle", "spaces"]),
        ("classify --group SU4 --l 0 --m 5", 0, ["gauge", "oracle"]),
        ("gauge pi --group SU4 --l 0 --m 10 --n 1 --p 5", 0, ["oracle"]),
        ("gauge equiv-su5 --k 1 --kp 2", 0, ["oracle"]),
        ("oracle homology --l 0 --m 5", 0, ["bundles", "gauge"]),
        ("classify --group SU4 --l 0", 1,
         ["bundles", "gauge", "manifolds", "oracle", "spaces"]),
    ],
    ids=["tables-lookup", "classify", "gauge-pi", "gauge-equiv-su5", "oracle-homology",
         "usage-error"],
)
def test_a_subcommand_executes_only_the_modules_it_needs(argv, code, unexecuted):
    out = _python("-c", UNEXECUTED_AFTER_RUN, *argv.split())
    assert out == {"exit": code, "unexecuted": unexecuted}


def test_the_tracer_wraps_a_module_registered_lazily():
    out = _python("-c", TRACED_RUN, str(TRACING),
                  *"gauge pi --group SU4 --l 0 --m 10 --n 1 --p 5".split())
    assert out["exit"] == 0
    assert out["calls"]["gauge.pi_of_expr"] >= 1
    assert out["calls"]["cli.run"] == 1


# The names the package re-exported when it imported every submodule
# at once, by the submodule that defines each.
PUBLIC = {
    "abelian": "AbGroup Prime direct_sum localize make_group parse_group "
               "tensor_with_cyclic tor_with_cyclic vp",
    "bundles": "BundleClass classify_bundles projection_induced_map_kind reduce_class",
    "errors": "BundleGaugeError LocalityError OutOfScopeError UnknownValueError",
    "gauge": "DecompositionResult GaugeQuery decompose_plocal decompose_pointed_m0 "
             "decompose_unpointed_m0 pi0_unpointed_gauge_m0 pi0_unpointed_gauge_plocal "
             "pi_of_expr pi_pointed_gauge_m0 pi_pointed_gauge_plocal pi_with_coefficients "
             "run_query s7_decompose_trivial s7_gauge_equivalent su5_gauge_equivalent_m0",
    "manifolds": "ManifoldSpec homology is_homotopy_equivalent normalize suspension "
                 "suspension_plocal twist_class",
    "oracle": "ChainComplex IntMatrix complex_for_manifold homology_of parse_complex "
              "smith_normal_form",
    "tables": "LieGroupId PiTable default_table pi6 pi6_moore",
}
HOMES = {name: module for module, names in PUBLIC.items() for name in names.split()}

PUBLIC_NAMES = """
import bundlegauge, importlib, json, sys
homes = json.loads(sys.argv[1])
same = sorted(name for name, module in homes.items() if getattr(bundlegauge, name)
              is getattr(importlib.import_module("bundlegauge." + module), name))
star = {}
exec("from bundlegauge import *", star)
print(json.dumps({"same": same, "star": sorted(n for n in star if n != "__builtins__")}))
"""


class TestPublicApi:
    def test_every_name_is_its_module_attribute_in_a_fresh_process(self):
        out = _python("-c", PUBLIC_NAMES, json.dumps(HOMES))
        assert out == {"same": sorted(HOMES), "star": sorted(HOMES)}

    def test_all_and_dir_list_the_public_names(self):
        assert sorted(bundlegauge.__all__) == sorted(HOMES)
        assert set(HOMES) <= set(dir(bundlegauge))

    def test_every_public_name_is_read_outside_its_module(self):
        # Another package module, a bench file or the README must name each
        # export; one that only its own module and its tests name is dead.
        package = SRC / "bundlegauge"
        readers = [*package.glob("*.py"), *(SRC.parent / "bench").glob("*"),
                   SRC.parent / "README.md"]
        texts = {path: path.read_text("utf-8") for path in readers
                 if path.is_file() and path != package / "__init__.py"}
        unread = [name for name in bundlegauge.__all__
                  if not any(re.search(rf"\b{name}\b", text) for path, text in texts.items()
                             if path != package / f"{bundlegauge._HOME[name]}.py")]
        assert unread == []

    @pytest.mark.parametrize("name", ["frobnicate", "is_prime", "_HOME_"])
    def test_an_unknown_name_is_an_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(bundlegauge, name)
        assert not hasattr(bundlegauge, name)


@pytest.fixture(scope="module")
def zipped_package(tmp_path_factory):
    package = SRC / "bundlegauge"
    archive = tmp_path_factory.mktemp("zip") / "bundlegauge.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, Path("bundlegauge") / path.relative_to(package))
    return archive


RP2 = "# real projective plane\ncells: 1 1 1\nboundary 2:\n2\n"

# One field of each answer, by argv.
ZIP_ANSWERS = {
    "--json tables lookup --group=SU4 --i=3": ("group", "Z"),
    "--json gauge pi --group SU4 --l 0 --m 10 --n 1 --p 5": ("group", "0"),
    "--json classify --group SU4 --l 0 --m 5": ("set", "Z_5"),
    "--json oracle homology --complex rp2.txt": ("degrees", ["Z", "Z_2", "0"]),
}


@pytest.mark.parametrize("argv", list(ZIP_ANSWERS))
def test_a_zip_of_the_package_answers(zipped_package, argv, tmp_path, monkeypatch):
    # Run from a directory outside the checkout and without site-packages
    # (-S), the package can come only from the zip: its code, its table
    # and its `python -m` entry point.
    (tmp_path / "rp2.txt").write_text(RP2, encoding="utf-8")
    out = _python("-S", "-m", "bundlegauge", *argv.split(), path=zipped_package,
                  cwd=tmp_path)
    field, value = ZIP_ANSWERS[argv]
    assert out["result"][field] == value
    monkeypatch.chdir(tmp_path)
    expected = cli.run(argv.split())
    assert expected.exit_code == 0
    assert out == json.loads(json.dumps(expected.payload))
