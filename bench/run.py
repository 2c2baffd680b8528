"""bundlegauge benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --write-golden

Run from the root of a checkout; the package is imported from ``src``.
A run drives one closed-loop client through the workload for S seconds
(and at least MIN_SAMPLES queries) and checks every answer.  Spread over
the same seconds, between queries, it times set-up in fresh interpreters
and ``selftest.run_all()``.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it wraps the
package's public functions, records spans and reports the per-layer
metrics instead.  Human-readable lines come
first; the last line of standard output is the JSON result.  Details of
each run, and the spans of a traced run, go to ``.bench_out/``.

``--workload all`` runs every workload both ways in subprocesses and
prints each metric by name and unit, plus the tracing overhead.
See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import ERROR_KINDS, EXIT_CODES, LAYERS, SNF_BUCKETS, Tracer, error_kind  # noqa: E402

WORKLOADS = ("cli-oneshot", "library-sweep", "exact-heavy")
DEFAULT_SEED = 1
GOLDEN = BENCH / "golden.json"
GOLDEN_QUERIES = 300
MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
HARD_LIMIT_S = 120.0
INTERP_REPEATS = 5
SETUP_REPEATS = 9
GATE_REPEATS = 5
CAPACITY = 1_000_000  # latency slots, preallocated so memory does not track speed
REPEAT_WINDOW = 50_000
CRITERION_BOUNDS = {1: 5.0, 10: 1.0}  # wall-clock bounds inside selftest itself

# Groups each workload must exercise; a traced run in which one of them
# records no call fails, since that means a wrapper was bypassed.
EXERCISED = {
    "cli-oneshot": (
        "cli.build_parser", "cli.run", "tables.default_table", "tables.lookup",
        "abelian.make_group", "abelian.is_prime", "spaces.construct",
        "manifolds.normalize", "manifolds.is_homotopy_equivalent",
        "bundles.classify_bundles", "gauge.decompose", "gauge.pi_of_expr", "gauge.pi",
        "oracle.snf.tiny",
    ),
    "library-sweep": (
        "tables.default_table", "tables.lookup", "abelian.make_group", "abelian.is_prime",
        "spaces.construct", "manifolds.normalize", "manifolds.is_homotopy_equivalent",
        "bundles.classify_bundles", "gauge.decompose", "gauge.pi_of_expr", "gauge.pi",
    ),
    "exact-heavy": (
        "tables.default_table", "tables.lookup", "abelian.make_group", "abelian.is_prime",
        "manifolds.normalize", "bundles.classify_bundles", "oracle.snf.small",
        "oracle.snf.large",
    ),
}

# The README's CLI examples (selftest aside), plus one pointed m = 0
# query so that the probe reaches pi_of_expr.
PROBE_ARGV = [
    "classify --group Sp2 --l 3 --m 5",
    "classify --group SU4 --l 0 --m 5 --k 12",
    "manifold equiv --a 3,0 --b 15,0",
    "manifold homology --l 3 --m 6",
    "manifold suspend --l 0 --m 50 --p 5",
    "gauge decompose --group SU4 --l 12 --m 0 --k 1",
    "gauge decompose --group Sp2 --l 0 --m 25 --k 5 --p 5",
    "gauge pi --group Spin8 --l 0 --m 5 --k 0 --n 0 --p 5",
    "gauge pi --group Spin8 --l 0 --m 0 --unpointed",
    "gauge pi --group SU4 --l 0 --m 0 --k 1 --n 1",
    "gauge equiv-s7 --group SU2 --k 1 --kp 2",
    "gauge equiv-s7 --group SU3 --k 0 --kp 3 --locality 2",
    "gauge equiv-su5 --k 1 --kp 121",
    "tables lookup --space S3 --i 6",
    "tables lookup --group Sp2 --i 4",
    "tables lookup --moore 8",
    "oracle homology --l 3 --m 6",
]


def median(xs) -> float:
    return statistics.median(xs)


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8]


# --------------------------------------------------------------------------
# Host facts and set-up.


def source_id(root: Path) -> str:
    """The commit id when the checkout is a git work tree, otherwise a
    digest of the package sources (a driver checkout has no .git)."""
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bundlegauge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def interp_start(env: dict) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(INTERP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return median(times)


def setup_child(env: dict) -> dict:
    """Set-up in a fresh interpreter: seconds to import the package, then
    the CLI, then to complete the first default_table()."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_child.py")], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


class Interleaved:
    """Set-up children and untraced selftest.run_all() calls, spread
    evenly over the run between queries.  The host's speed drifts over
    seconds; samples taken across the whole run see more of that drift
    than a block of them taken at one end, so their median is steadier."""

    def __init__(self, env: dict, tracer: Tracer | None) -> None:
        from bundlegauge import selftest

        self.env, self.tracer, self.selftest = env, tracer, selftest
        self.setup: list[dict] = []
        self.run_all_s: list[float] = []
        self.criteria: dict[int, list[float]] = {n: [] for n in range(1, 11)}
        self.failures: list[str] = []

    def schedule(self) -> list[tuple[float, object]]:
        """(fraction of the run, task) pairs, in order."""
        tasks = [((i + 0.5) / SETUP_REPEATS, self.setup_step) for i in range(SETUP_REPEATS)]
        tasks += [((i + 0.5) / GATE_REPEATS, self.gate_step) for i in range(GATE_REPEATS)]
        return sorted(tasks, key=lambda t: t[0])

    def setup_step(self) -> None:
        self.setup.append(setup_child(self.env))

    def gate_step(self) -> None:
        paused = self.tracer is not None and self.tracer.active
        if paused:
            self.tracer.uninstall()
        t0 = time.perf_counter()
        results = self.selftest.run_all()
        self.run_all_s.append(time.perf_counter() - t0)
        if paused:
            self.tracer.install()
        for r in results:
            self.criteria[r.number].append(r.seconds)
            if not r.passed:
                self.failures.append(r.line())


# --------------------------------------------------------------------------
# Workload loops.  Each feeds a Loop: the latency samples, the tallies of
# outcomes, and the answers of the first GOLDEN_QUERIES queries.


class Loop:
    def __init__(self, seconds: float, tasks=()) -> None:
        self.lat = array("d", bytes(8 * CAPACITY))
        self.n = 0
        self.failed = 0
        self.failures: list[str] = []
        self.refusals = {1: 0, 2: 0, 3: 0}
        self.seen: set[int] = set()
        self.repeats = 0
        self.answers: list = []
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard = self.start + HARD_LIMIT_S
        self.tasks = [(self.start + f * seconds, task) for f, task in tasks]

    def record(self, seconds: float, key, ok: bool, outcome: int, answer, note: str) -> bool:
        """Store one query's result; False once the run is over."""
        self.lat[self.n] = seconds
        self.n += 1
        if outcome in self.refusals:
            self.refusals[outcome] += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(note)
        if self.n <= REPEAT_WINDOW:
            h = hash(key)
            if h in self.seen:
                self.repeats += 1
            else:
                self.seen.add(h)
        if self.n <= GOLDEN_QUERIES:
            self.answers.append(answer)
        now = time.perf_counter()
        while self.tasks and now >= self.tasks[0][0]:
            self.tasks.pop(0)[1]()
            now = time.perf_counter()
        return not ((now >= self.deadline and self.n >= MIN_SAMPLES)
                    or now >= self.hard or self.n == CAPACITY)

    def finish(self) -> None:
        """Run the interleaved tasks that were not yet due."""
        for _, task in self.tasks:
            task()
        self.tasks.clear()

    def samples(self) -> list[float]:
        return self.lat[: self.n].tolist()


def run_inprocess(queries, bg, loop: Loop, tracer: Tracer | None) -> None:
    clock = time.perf_counter
    for q in queries:
        if tracer is not None:
            tracer.query = loop.n + 1
        t0 = clock()
        try:
            out = q.call(bg)
            t1 = clock()
            outcome = wl.ANSWER
        except Exception as exc:  # refusals are answers; anything else is a crash
            t1 = clock()
            out = exc
            outcome = EXIT_CODES[error_kind(exc)]
        ok = outcome == q.expect and (outcome != wl.ANSWER or q.check is None or q.check(out))
        what = "wrong answer" if outcome == q.expect else f"outcome {outcome}, expected {q.expect}"
        note = f"{q.kind} {q.key[1:]!r:.200}: {what}: {out!r:.200}"
        if not loop.record(t1 - t0, q.key, ok, outcome, wl.answer_of(out), note):
            break


def write_complexes(rng: random.Random, out_dir: Path) -> list[tuple[str, list[str]]]:
    paths = []
    (out_dir / "complexes").mkdir(parents=True, exist_ok=True)
    for i, (text, degrees) in enumerate(wl.cli_complexes(rng)):
        path = out_dir / "complexes" / f"surface-{i}.txt"
        path.write_text(text)
        paths.append((path.relative_to(out_dir.parent).as_posix(), degrees))
    return paths


def run_cli(queries, root: Path, env: dict, loop: Loop, tracer: Tracer | None) -> None:
    from bundlegauge import cli

    spans = root / ".bench_out" / "child-spans.json"
    if tracer is None:
        head = [sys.executable, "-m", "bundlegauge"]
    else:
        head = [sys.executable, str(BENCH / "traced_cli.py"), str(spans)]
    clock = time.perf_counter
    for q in queries:
        spans.unlink(missing_ok=True)
        t0 = clock()
        proc = subprocess.run(head + list(q.argv), cwd=root, env=env, capture_output=True,
                              text=True, timeout=60)
        t1 = clock()
        if tracer is not None:
            tracer.absorb(spans, loop.n + 1)
        code = proc.returncode
        note = f"{' '.join(q.argv)}: exit {code}, expected {q.exit_code}; {proc.stderr[-300:]}"
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            loop.record(t1 - t0, q.argv, False, -1, None, note)
            continue
        inproc = cli.run(list(q.argv))
        same = (inproc.exit_code == code
                and json.loads(json.dumps(inproc.payload)) == payload)
        result = payload.get("result")
        fields_ok = q.expect is None or (
            isinstance(result, dict) and all(result.get(k) == v for k, v in q.expect.items()))
        ok = code == q.exit_code and same and fields_ok
        if not same:
            note += " (differs from in-process cli.run)"
        if not loop.record(t1 - t0, q.argv, ok, code, wl.cli_answer_fields(payload, code), note):
            break


def probe(tracer: Tracer, bg, complexes) -> dict:
    """A fixed pass over every layer at query id 0, so that each traced
    layer has calls on every workload, and the load and parser timings."""
    from bundlegauge import cli

    tracer.query = 0
    data = Path(bg.__file__).parent / "data" / "homotopy_groups.txt"
    loads = []
    for _ in range(5):
        t0 = time.perf_counter()
        bg.PiTable.load(data)
        loads.append(time.perf_counter() - t0)
    for _ in range(5):
        cli.build_parser()
    for line in PROBE_ARGV + [f"oracle homology --complex {complexes[0][0]}"]:
        result = cli.run(["--json"] + line.split())
        if result.exit_code not in (0, 2):  # the README's SU(3) at p = 2 is out of scope
            raise RuntimeError(f"probe query failed: {line}: {result.payload}")
    rng = random.Random(0)
    bg.smith_normal_form(bg.IntMatrix.from_rows(ref.random_dense(rng, 10)))
    cells, d1, d2, _ = ref.surface_complex(rng, 5, klein=True)
    bg.homology_of(bg.ChainComplex.build(list(cells), {
        1: bg.IntMatrix.from_rows(d1, cols=cells[1]),
        2: bg.IntMatrix.from_rows(d2, cols=cells[2]),
    }))
    return {"tables.load_ms": 1e3 * median(loads)}


# --------------------------------------------------------------------------
# Metrics.


def span_durations(tracer: Tracer, group: str) -> list[float]:
    gid = tracer.names.index(group)
    return [tracer.end[i] - tracer.start[i] for i in range(len(tracer)) if tracer.name[i] == gid]


def layer_metrics(tracer: Tracer, interp_s: float, between: Interleaved, probe_out: dict,
                  loop: Loop, host: dict) -> dict:
    s = tracer.summary()
    criteria = between.criteria
    ms = 1e3
    m = {
        "interp.start_ms": (ms * interp_s, "ms"),
        "import.bundlegauge_ms": (ms * median([r["package"] for r in between.setup]), "ms"),
        "import.cli_ms": (ms * median([r["cli"] for r in between.setup]), "ms"),
        "cli.build_parser_ms": (ms * median(span_durations(tracer, "cli.build_parser")), "ms"),
        "cli.run_ms": (ms * median(span_durations(tracer, "cli.run")), "ms"),
        "cli.run.calls": (s["cli.run"]["calls"], "count"),
        "tables.load_ms": (probe_out["tables.load_ms"], "ms"),
        "tables.unknown": (s["tables.lookup"]["errors"][ERROR_KINDS.index("unknown")], "count"),
    }
    full = ("bundles.classify_bundles", "gauge.decompose", "gauge.pi_of_expr", "gauge.pi")
    with_max = ("abelian.make_group", "abelian.is_prime", "bundles.classify_bundles")
    for group in ("tables.default_table", "tables.lookup", "abelian.make_group",
                  "abelian.is_prime", "spaces.construct", "manifolds.normalize",
                  "manifolds.is_homotopy_equivalent", *full):
        g = s[group]
        m[f"{group}.calls"] = (g["calls"], "count")
        m[f"{group}.busy_ms"] = (ms * g["busy"], "ms")
        if group in full:
            m[f"{group}.self_ms"] = (ms * g["self"], "ms")
        if group in with_max:
            m[f"{group}.max_ms"] = (ms * g["max"], "ms")
    for b in SNF_BUCKETS:
        g = s[f"oracle.snf.{b}"]
        m[f"oracle.snf.{b}.calls"] = (g["calls"], "count")
        m[f"oracle.snf.{b}.busy_ms"] = (ms * g["busy"], "ms")
    m["oracle.snf.diag_digits_max"] = (tracer.digits_max, "digits")
    for layer in LAYERS:
        for k, kind in enumerate(ERROR_KINDS):
            if (layer, kind) == ("tables", "unknown"):
                continue  # reported as tables.unknown
            total = sum(g["errors"][k] for name, g in s.items() if name.split(".")[0] == layer)
            m[f"{layer}.errors.{kind}"] = (total, "count")
    for number in range(1, 11):
        m[f"selftest.criterion_{number}_s"] = (median(criteria[number]), "s")
    for number, bound in CRITERION_BOUNDS.items():
        m[f"selftest.criterion_{number}_margin_s"] = (bound - median(criteria[number]), "s")
    m["trace.latency_p50_ms"] = (ms * median(loop.samples()), "ms")
    m["trace.spans"] = (len(tracer), "count")
    m.update(traffic_metrics(loop))
    m["host.nproc"] = (host["nproc"], "count")
    m["host.load1_start"] = (host["load1_start"], "load")
    m["host.load1_end"] = (host["load1_end"], "load")
    return m


def traffic_metrics(loop: Loop) -> dict:
    n = max(loop.n, 1)
    m = {"workload.repeat_share": (loop.repeats / min(n, REPEAT_WINDOW), "share")}
    for code, count in loop.refusals.items():
        m[f"workload.refusal_share.exit_{code}"] = (count / n, "share")
    return m


# --------------------------------------------------------------------------


def run(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "bundlegauge" / "__init__.py").is_file():
        print(f"error: no package at {src}/bundlegauge; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": source_id(root),
        "load1_start": os.getloadavg()[0],
    }
    interp_s = interp_start(env)
    host["interp_start_ms"] = 1e3 * interp_s
    setup_child(env)  # compiles the bytecode; not counted

    import bundlegauge as bg
    import bundlegauge.cli  # noqa: F401

    bg.default_table()
    rng = random.Random(args.seed)
    complexes = write_complexes(rng, out_dir)
    tracer = Tracer() if args.trace else None
    probe_out = {}
    if tracer is not None:
        tracer.install()
        probe_out = probe(tracer, bg, complexes)
        if args.workload == "cli-oneshot":
            tracer.uninstall()  # the children trace themselves

    between = Interleaved(env, tracer)
    loop = Loop(args.seconds, between.schedule())
    if args.workload == "cli-oneshot":
        run_cli(wl.cli_queries(rng, complexes), root, env, loop, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        queries = (wl.library_queries if args.workload == "library-sweep"
                   else wl.exact_queries)(rng, bg)
        run_inprocess(queries, bg, loop, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.finish()
    if tracer is not None:
        tracer.uninstall()
    criteria, gate_failures = between.criteria, between.failures
    host["load1_end"] = os.getloadavg()[0]

    golden_bad = check_golden(args, loop)
    problems = list(loop.failures) + gate_failures + golden_bad
    coverage_gaps = []
    if tracer is not None:
        s = tracer.summary(min_query=1)
        coverage_gaps = [g for g in EXERCISED[args.workload] if s[g]["calls"] == 0]
        tracer.dump(out_dir / f"spans-{args.workload}.json")

    samples = loop.samples()
    if args.trace:
        metrics = layer_metrics(tracer, interp_s, between, probe_out, loop, host)
    else:
        metrics = {
            "setup_s": (median([r["package"] + r["cli"] + r["table"] for r in between.setup]),
                        "s"),
            "latency_p50_ms": (1e3 * median(samples), "ms"),
            "latency_p90_ms": (1e3 * p90(samples), "ms"),
            "throughput_qps": (loop.n / math.fsum(samples), "1/s"),
            "selftest_s": (median(between.run_all_s), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    correct = loop.failed == 0 and not gate_failures and not golden_bad
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "samples": loop.n,
        "fail_share": loop.failed / max(loop.n, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "traffic": {k: v for k, (v, _) in traffic_metrics(loop).items()},
        "criterion_margins_s": {n: b - median(criteria[n]) for n, b in CRITERION_BOUNDS.items()},
        "problems": problems, "coverage_gaps": coverage_gaps,
    }
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, {loop.n} queries, "
          f"trace {args.trace}, python {host['python']}, nproc {host['nproc']}, "
          f"source {host['commit']}")
    print(f"# load average {host['load1_start']:.2f} -> {host['load1_end']:.2f}, "
          f"interp.start_ms {host['interp_start_ms']:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    print(f"{'fail_share':<44} {report['fail_share']:>16.6f} share "
          f"({loop.failed} of {loop.n})")
    if not args.trace:  # a traced run lists them among its metrics
        for name, value in report["traffic"].items():
            print(f"{name:<44} {value:>16.6f} share")
    for n, margin in report["criterion_margins_s"].items():
        print(f"# selftest criterion {n} margin under its {CRITERION_BOUNDS[n]:g} s bound: "
              f"{margin:.3f} s")
    for p in problems[:10]:
        print(f"# FAILED: {p}")
    if coverage_gaps:
        print(f"error: traced groups with no calls on {args.workload}: "
              f"{', '.join(coverage_gaps)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": loop.n,
        "failed": loop.failed,
        "metrics": report["metrics"],
    }))
    return 0


def check_golden(args, loop: Loop) -> list[str]:
    """For the default seed, compare the first answers with the golden file."""
    if args.seed != DEFAULT_SEED or args.workload not in ("cli-oneshot", "library-sweep"):
        return []
    golden = json.loads(GOLDEN.read_text())[args.workload]
    bad = [i for i, (a, b) in enumerate(zip(loop.answers, golden)) if a != b]
    return [f"golden answer {i} differs: {loop.answers[i]!r:.200} != {golden[i]!r:.200}"
            for i in bad[:10]] + ([f"{len(bad)} golden mismatches"] if bad else [])


def write_golden() -> int:
    """Regenerate the golden answers for the default seed in process."""
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import bundlegauge as bg
    from bundlegauge import cli

    out = {"seed": DEFAULT_SEED}
    rng = random.Random(DEFAULT_SEED)
    complexes = write_complexes(rng, root / ".bench_out")
    queries = wl.cli_queries(rng, complexes)
    out["cli-oneshot"] = []
    for _ in range(GOLDEN_QUERIES):
        q = next(queries)
        res = cli.run(list(q.argv))
        payload = json.loads(json.dumps(res.payload))
        out["cli-oneshot"].append(wl.cli_answer_fields(payload, res.exit_code))
    rng = random.Random(DEFAULT_SEED)
    write_complexes(rng, root / ".bench_out")
    loop = Loop(HARD_LIMIT_S)
    queries = wl.library_queries(rng, bg)
    run_inprocess((next(queries) for _ in range(GOLDEN_QUERIES)), bg, loop, None)
    out["library-sweep"] = loop.answers
    parts = [f'{{"seed": {DEFAULT_SEED}']
    for name in ("cli-oneshot", "library-sweep"):
        rows = ",\n".join(json.dumps(a, sort_keys=True) for a in out[name])
        parts.append(f'"{name}": [\n{rows}]')
    GOLDEN.write_text(",\n".join(parts) + "}\n")
    return 0


def run_all_workloads(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode:
                return proc.returncode
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        untraced = results[0]["metrics"]["latency_p50_ms"]["value"]
        traced = results[1]["metrics"]["trace.latency_p50_ms"]["value"]
        rows.append((workload, untraced, traced))
    print("# tracing overhead: traced minus untraced latency_p50_ms")
    for workload, untraced, traced in rows:
        print(f"{workload:<16} {untraced:>12.4f} ms -> {traced:>12.4f} ms  "
              f"overhead {traced - untraced:+.4f} ms ({(traced / untraced - 1) * 100:+.1f}%)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all_workloads(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
