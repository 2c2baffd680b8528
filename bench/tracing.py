"""Span recording for the traced benchmark run.

The package is measured from outside: each public function named in
TARGETS is replaced, in every ``bundlegauge`` module that holds it, by a
wrapper that records one span per call.  A span holds a name (the
metric group), start, end, the index of the enclosing span and the id of
the query that caused it.  Spans live in flat arrays so that a run with
a million calls stays small; they are written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from itertools import islice
from pathlib import Path

ERROR_KINDS = ("out_of_scope", "unknown", "usage", "other")
LAYERS = ("cli", "tables", "abelian", "spaces", "manifolds", "bundles", "gauge", "oracle")

_SPACE_CONSTRUCTORS = (
    "sphere", "moore", "lie", "loop", "mod_loop", "map_star_y", "gauge_s4",
    "x_fiber", "y_cofiber", "product", "wedge", "localized",
)

# (module, attribute, metric group).  A dotted attribute is a method.
TARGETS = [
    ("bundlegauge.cli", "build_parser", "cli.build_parser"),
    ("bundlegauge.cli", "run", "cli.run"),
    ("bundlegauge.tables", "default_table", "tables.default_table"),
    ("bundlegauge.tables", "PiTable.lie_record", "tables.lookup"),
    ("bundlegauge.tables", "PiTable.sphere_record", "tables.lookup"),
    ("bundlegauge.abelian", "make_group", "abelian.make_group"),
    ("bundlegauge.abelian", "is_prime", "abelian.is_prime"),
    *(("bundlegauge.spaces", name, "spaces.construct") for name in _SPACE_CONSTRUCTORS),
    ("bundlegauge.manifolds", "normalize", "manifolds.normalize"),
    ("bundlegauge.manifolds", "is_homotopy_equivalent", "manifolds.is_homotopy_equivalent"),
    ("bundlegauge.bundles", "classify_bundles", "bundles.classify_bundles"),
    ("bundlegauge.gauge", "decompose_unpointed_m0", "gauge.decompose"),
    ("bundlegauge.gauge", "decompose_pointed_m0", "gauge.decompose"),
    ("bundlegauge.gauge", "decompose_plocal", "gauge.decompose"),
    ("bundlegauge.gauge", "s7_decompose_trivial", "gauge.decompose"),
    ("bundlegauge.gauge", "pi_of_expr", "gauge.pi_of_expr"),
    ("bundlegauge.gauge", "pi_pointed_gauge_m0", "gauge.pi"),
    ("bundlegauge.gauge", "pi_pointed_gauge_plocal", "gauge.pi"),
    ("bundlegauge.gauge", "pi0_unpointed_gauge_m0", "gauge.pi"),
    ("bundlegauge.gauge", "pi0_unpointed_gauge_plocal", "gauge.pi"),
    ("bundlegauge.gauge", "pi_with_coefficients", "gauge.pi"),
    ("bundlegauge.oracle", "smith_normal_form", "oracle.snf"),
]

SNF_BUCKETS = ("tiny", "small", "large")


def snf_bucket(matrix) -> str:
    """Size bucket by entry count: 1x1 and empty boundaries, dense
    matrices up to 32 x 32, and anything larger."""
    entries = matrix.rows * matrix.cols
    if entries <= 16:
        return "tiny"
    return "small" if entries <= 1024 else "large"


def groups() -> list[str]:
    out = []
    for _, _, group in TARGETS:
        names = [f"oracle.snf.{b}" for b in SNF_BUCKETS] if group == "oracle.snf" else [group]
        out.extend(n for n in names if n not in out)
    return out


def error_kind(exc: BaseException) -> int:
    """Index into ERROR_KINDS."""
    from bundlegauge.cli import UsageError
    from bundlegauge.errors import OutOfScopeError, UnknownValueError

    if isinstance(exc, OutOfScopeError):
        return 0
    if isinstance(exc, UnknownValueError):
        return 1
    if isinstance(exc, (ValueError, UsageError)):
        return 2
    return 3


# The CLI exit code of each ERROR_KINDS entry; -1 marks a crash.
EXIT_CODES = (2, 3, 1, -1)
_EXIT_KIND = {code: i for i, code in enumerate(EXIT_CODES) if code > 0}


class Tracer:
    def __init__(self) -> None:
        self.names = groups()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("i")
        self.error = array("b")
        self.outer = array("b")
        self.query = 0
        self.digits_max = 0
        self._stack = [-1]
        self._depth = [0] * len(self.names)
        self._last_exc = None
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, group: str, fn):
        ids = self._ids
        fixed = None if group == "oracle.snf" else ids[group]
        names, starts, ends = self.name, self.start, self.end
        parents, qids, errors, outers = self.parent, self.qid, self.error, self.outer
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        cli_run = ids["cli.run"]
        tracer = self

        def wrapper(*args, **kwargs):
            gid = fixed if fixed is not None else ids["oracle.snf." + snf_bucket(args[0])]
            i = len(starts)
            names.append(gid)
            parents.append(stack[-1])
            qids.append(tracer.query)
            errors.append(-1)
            outers.append(depth[gid] == 0)
            ends.append(0.0)
            depth[gid] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                if exc is not tracer._last_exc:
                    errors[i] = error_kind(exc)
                    tracer._last_exc = exc
                raise
            else:
                ends[i] = clock()
                if gid == cli_run and result.exit_code in _EXIT_KIND:
                    errors[i] = _EXIT_KIND[result.exit_code]
                elif fixed is None and result.diagonal:
                    tracer.digits_max = max(
                        tracer.digits_max, len(str(max(result.diagonal)))
                    )
                return result
            finally:
                stack.pop()
                depth[gid] -= 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded package module that holds
        it, so that names imported with ``from .x import f`` are traced
        too.  A reference kept elsewhere (a closure, a dispatch table)
        escapes; the per-workload zero-call check in run.py catches that."""
        import bundlegauge.cli  # noqa: F401  (loads every module)

        modules = [
            m for name, m in sys.modules.items()
            if name == "bundlegauge" or name.startswith("bundlegauge.")
        ]
        for modname, attr, group in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(group, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(group, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    @property
    def active(self) -> bool:
        return bool(self._restore)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def absorb(self, path: Path, query: int) -> None:
        """Append the spans a traced child process wrote to ``path``."""
        data = json.loads(path.read_text())
        offset = len(self.start)
        remap = [self._ids[n] for n in data["names"]]
        self.name.extend(remap[i] for i in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.qid.extend([query] * len(data["name"]))
        self.error.extend(data["error"])
        self.outer.extend(data["outer"])
        self.digits_max = max(self.digits_max, data["digits_max"])

    def dump(self, path: Path) -> None:
        """One JSON object of columns; times are ns from the first span."""
        base = self.start[0] if len(self) else 0.0
        columns = {
            "name": self.name,
            "start_ns": (round((t - base) * 1e9) for t in self.start),
            "end_ns": (round((t - base) * 1e9) for t in self.end),
            "parent": self.parent,
            "qid": self.qid,
            "error": self.error,
            "outer": self.outer,
        }
        with path.open("w") as f:
            f.write(json.dumps({"names": self.names, "error_kinds": ERROR_KINDS})[:-1])
            for key, values in columns.items():
                f.write(f', "{key}": [')
                it = iter(values)
                sep = ""
                while chunk := list(islice(it, 65536)):  # bounded memory per write
                    f.write(sep + ",".join(map(str, chunk)))
                    sep = ","
                f.write("]")
            f.write("}")

    def dump_raw(self, path: Path) -> None:
        """Child-process form read back by :meth:`absorb`."""
        path.write_text(json.dumps({
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "error": list(self.error),
            "outer": list(self.outer),
            "digits_max": self.digits_max,
        }))

    def summary(self, min_query: int = 0) -> dict[str, dict]:
        """Per group: calls, busy (outermost spans only, so recursion is
        not counted twice), self (span minus its children), max, and
        errors by kind at the span where they arose.  Only spans with a
        query id of at least ``min_query`` count."""
        n = len(self)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "busy": 0.0, "self": 0.0, "max": 0.0,
                   "errors": [0] * len(ERROR_KINDS)}
            for name in self.names
        }
        for i in range(n):
            if self.qid[i] < min_query:
                continue
            s = out[self.names[self.name[i]]]
            s["calls"] += 1
            if self.outer[i]:
                s["busy"] += dur[i]
            s["self"] += dur[i] - child[i]
            s["max"] = max(s["max"], dur[i])
            if self.error[i] >= 0:
                s["errors"][self.error[i]] += 1
        return out
