"""Command-line interface.

Every subcommand prints a short human answer and, with --json, a stable
JSON document carrying the result, any caveats, the name and citations
of the decision rule used (its row of tables.RULES), then the sources of
the table values consulted.

Exit codes: 0 answered, 1 usage error, 2 out of theorem scope,
3 unknown value or table gap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import lru_cache

from . import bundles, gauge, manifolds, oracle
from .abelian import AbGroup
from .errors import OutOfScopeError, UnknownValueError
from .tables import PI6_MOORE_SOURCE, RULES, LieGroupId, default_table, pi6_moore

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OUT_OF_SCOPE = 2
EXIT_UNKNOWN = 3


class UsageError(Exception):
    """A malformed command line; command names the subcommand whose
    arguments failed to parse, if any."""

    def __init__(self, message: str, command: str = "") -> None:
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message, self.get_default("command_name") or "")


class QueryResult(
    namedtuple("QueryResult", "text payload exit_code", defaults=(EXIT_OK,))
):
    __slots__ = ()


def _result(result, *, text: str, rule=None, caveats=(), sources=(),
            status: str = "ok", code: int = EXIT_OK) -> QueryResult:
    theorem, citations = RULES[rule] if rule else (None, ())
    payload = {
        "status": status,
        "result": result,
        "caveats": list(caveats),
        "theorem": theorem,
        "citations": [*citations, *sources],
    }
    return QueryResult(text, payload, code)


def _error_result(status: str, message: str, code: int) -> QueryResult:
    out = _result(None, text=f"error: {message}", status=status, code=code)
    out.payload["error"] = message
    return out


def _group_json(g: AbGroup) -> dict:
    return {
        "group": g.render(),
        "free_rank": g.free_rank,
        "invariant_factors": list(g.invariant_factors),
        "local_prime": g.local_prime,
    }


def _pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected a pair like 3,0 but got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_classify(args) -> QueryResult:
    g = LieGroupId.parse(args.group)
    spec = manifolds.normalize(args.l, args.m)
    index_set = bundles.classify_bundles(g, spec)
    size = index_set.order() or None
    result = {
        "set": index_set.render(),
        "size": size,
        "projection_on_classes": bundles.projection_induced_map_kind(spec.m),
    }
    text = (
        f"Prin_{g}({spec}) = {index_set.render()}"
        + (f" ({size} classes)" if size else " (infinitely many classes)")
    )
    if args.k is not None:
        bundle = bundles.reduce_class(g, spec, args.k)
        result["k"] = bundle.k
        result["modulus"] = bundle.modulus
        text += f"; k_raw={args.k} reduces to k={bundle.k}"
    return _result(result, text=text, rule="classify")


def _cmd_manifold_equiv(args) -> QueryResult:
    a = manifolds.normalize(*_pair(args.a))
    b = manifolds.normalize(*_pair(args.b))
    decision = manifolds.is_homotopy_equivalent(a, b)
    verdict = "equivalent" if decision.equivalent else "not equivalent"
    return _result(
        {"equivalent": decision.equivalent, "reason": decision.reason,
         "a": {"l": a.l, "m": a.m}, "b": {"l": b.l, "m": b.m}},
        text=f"{a} and {b}: {verdict} ({decision.reason})",
        rule=decision.rule,
    )


def _cmd_manifold_homology(args) -> QueryResult:
    spec = manifolds.normalize(args.l, args.m)
    groups = manifolds.homology(spec)
    text = "H_* = (" + ", ".join(g.render() for g in groups) + ")"
    return _result(
        {"degrees": [g.render() for g in groups], "l": spec.l, "m": spec.m},
        text=f"{spec}: {text}",
        rule="homology",
    )


def _cmd_manifold_suspend(args) -> QueryResult:
    spec = manifolds.normalize(args.l, args.m)
    if args.p is None:
        expr = manifolds.suspension(spec)
    else:
        expr = manifolds.suspension_plocal(spec, args.p)
    return _result(
        {"expression": expr.render(), "tree": expr.to_json()},
        text=f"Susp {spec} = {expr.render()}",
        rule="suspension" if args.p is None else "suspension-plocal",
    )


def _gauge_query(args, spec, *, pointed: bool, looped: int | None) -> gauge.GaugeQuery:
    """The query that both gauge commands answer, localized at --p if given."""
    bundle = bundles.reduce_class(LieGroupId.parse(args.group), spec, args.k)
    locality: str | int = "integral" if args.p is None else args.p
    return gauge.GaugeQuery(bundle, pointed=pointed, looped=looped, locality=locality)


def _cmd_gauge_decompose(args) -> QueryResult:
    spec = manifolds.normalize(args.l, args.m)
    if args.looped and spec.m < 2:
        raise UsageError("--looped needs m >= 2 and --p")
    if args.pointed and spec.m == 1:
        raise UsageError("--pointed does not apply at m = 1, where the base is S^7")
    decomposition = gauge.run_query(
        _gauge_query(args, spec, pointed=args.pointed, looped=int(args.looped))
    )
    loops = "O^1 " * decomposition.loops
    return _result(
        {
            "describes": decomposition.describes,
            "expression": decomposition.expr.render(),
            "tree": decomposition.expr.to_json(),
            "loops": decomposition.loops,
        },
        text=f"{decomposition.describes} = {decomposition.expr.render()}"
        + (f"  [{loops.strip()} applied]" if decomposition.loops else ""),
        caveats=decomposition.caveats,
        rule=decomposition.rule,
    )


def _cmd_gauge_pi(args) -> QueryResult:
    if args.n < 0:
        raise UsageError("homotopy degree must be nonnegative")
    spec = manifolds.normalize(args.l, args.m)
    if args.looped and args.unpointed:
        raise UsageError("--looped does not combine with --unpointed")
    if args.looped and spec.m < 2:
        raise UsageError("--looped needs m >= 2 and --p")
    if spec.m == 1:
        raise OutOfScopeError(
            "homotopy groups over S^7 are not tabulated; use gauge equiv-s7"
        )
    if spec.m >= 2 and args.p is None:
        raise UsageError("bases with torsion need a prime: pass --p")
    if args.unpointed and args.n != 0:
        raise OutOfScopeError("only pi_0 of the unpointed gauge group is computed")
    query = _gauge_query(args, spec, pointed=not args.unpointed,
                         looped=1 if args.looped else None)
    at = "" if args.p is None else f" @ ({args.p})"
    if args.unpointed:
        if args.p is None:
            group = gauge.pi0_unpointed_gauge_m0(query.bundle.group, spec.l)
        else:
            group = gauge.pi0_unpointed_gauge_plocal(
                query.bundle.group, spec.m, query.bundle.k, args.p
            )
        return _result(
            _group_json(group),
            text=f"pi_0(G^{query.bundle.k}({spec}){at}) = {group.render()}",
            rule="components-m0" if args.p is None else "components-plocal",
        )
    decomposition = gauge.run_query(query)
    value = gauge.pi_of_expr(decomposition.expr, args.n)
    result = _group_json(value.group)
    if args.p is None:
        result["symbolic"] = list(value.symbolic)
    return _result(
        result,
        text=f"pi_{args.n}({decomposition.describes}{at}) = {value}",
        caveats=value.notes,
        rule=decomposition.rule,
        sources=value.sources,
    )


def _cmd_gauge_equiv_s7(args) -> QueryResult:
    g = LieGroupId.parse(args.group)
    decision = gauge.s7_gauge_equivalent(g, args.k, args.kp, args.locality)
    result = {"verdict": decision.verdict, "reason": decision.reason}
    if decision.expr is not None:
        result["expression"] = decision.expr.render()
        result["tree"] = decision.expr.to_json()
    out_of_scope = decision.verdict == "out-of-scope"
    return _result(
        result,
        text=f"G^{args.k}(S^7) vs G^{args.kp}(S^7) for {g} at {args.locality}: "
        f"{decision.verdict} ({decision.reason})",
        rule=decision.rule,
        status="out-of-scope" if out_of_scope else "ok",
        code=EXIT_OUT_OF_SCOPE if out_of_scope else EXIT_OK,
    )


def _cmd_gauge_equiv_su5(args) -> QueryResult:
    decision = gauge.su5_gauge_equivalent_m0(args.k, args.kp)
    return _result(
        {"verdict": decision.verdict, "reason": decision.reason},
        text=f"SU(5) gauge groups k={args.k}, k'={args.kp}: "
        f"{decision.verdict} ({decision.reason})",
        rule="su5-gcd",
    )


def _cmd_tables_lookup(args) -> QueryResult:
    table = default_table()
    chosen = [x is not None for x in (args.space, args.group, args.moore)]
    if sum(chosen) != 1:
        raise UsageError("pick exactly one of --space, --group, --moore")
    if args.moore is not None:
        group = pi6_moore(args.moore)
        return _result(
            {"key": f"P^4({args.moore})", "degree": 6,
             **_group_json(group), "source": PI6_MOORE_SOURCE},
            text=f"pi_6(P^4({args.moore})) = {group.render()}",
            sources=[PI6_MOORE_SOURCE],
        )
    if args.i is None:
        raise UsageError("--i is required for sphere and group lookups")
    if args.space is not None:
        if not (args.space.startswith("S") and args.space[1:].isdecimal()):
            raise UsageError("sphere keys look like S3, S4, ...")
        n = int(args.space[1:])
        rec = table.sphere_record(n, args.i)
        label = f"pi_{args.i}(S^{n})"
    else:
        g = LieGroupId.parse(args.group)
        rec = table.lie_record(g, args.i)
        label = f"pi_{args.i}({g})"
    return _result(
        {"key": rec.key, "degree": rec.degree, **_group_json(rec.group),
         "source": rec.source},
        text=f"{label} = {rec.group.render()}  [{rec.source}]",
        sources=[rec.source],
    )


def _cmd_oracle_homology(args) -> QueryResult:
    if args.complex is not None:
        with open(args.complex, encoding="utf-8") as f:
            complex_ = oracle.parse_complex(f.read())
        label = args.complex
    else:
        if args.l is None or args.m is None:
            raise UsageError("pass either --complex FILE or both --l and --m")
        spec = manifolds.normalize(args.l, args.m)
        complex_ = oracle.complex_for_manifold(spec)
        label = str(spec)
    groups = oracle.homology_of(complex_)
    return _result(
        {
            "source": label,
            "cells": list(complex_.cells),
            "degrees": [g.render() for g in groups],
        },
        text=f"{label}: H_* = (" + ", ".join(g.render() for g in groups) + ")",
        rule="snf",
    )


def _cmd_selftest(args) -> QueryResult:
    from . import selftest  # loaded only for this subcommand

    results = selftest.run_all()
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append("all criteria passed" if ok else "FAILURES present")
    return _result(
        [
            {
                "criterion": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        text="\n".join(lines),
        status="ok" if ok else "failed",
        code=EXIT_OK if ok else 1,
    )


def _leaf(subparsers, name: str, fn, **kwargs) -> _Parser:
    """A subcommand parser; its payloads name it as its usage line does
    after the program name, for example "gauge pi"."""
    p = subparsers.add_parser(name, **kwargs)
    p.set_defaults(fn=fn, command_name=p.prog.partition(" ")[2])
    return p


def build_parser() -> _Parser:
    # main() looks for the literal --json, so no prefix of it may parse.
    parser = _Parser(prog="bundlegauge", description=__doc__, allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = _leaf(sub, "classify", _cmd_classify, help="classify principal G-bundles")
    p.add_argument("--group", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="also reduce this class")

    manifold = sub.add_parser("manifold", help="total-space questions")
    msub = manifold.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = _leaf(msub, "equiv", _cmd_manifold_equiv)
    p.add_argument("--a", required=True, metavar="L,M")
    p.add_argument("--b", required=True, metavar="L,M")
    p = _leaf(msub, "homology", _cmd_manifold_homology)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = _leaf(msub, "suspend", _cmd_manifold_suspend)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, default=None)

    gauge_cmd = sub.add_parser("gauge", help="gauge group questions")
    gsub = gauge_cmd.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = _leaf(gsub, "decompose", _cmd_gauge_decompose)
    p.add_argument("--group", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--pointed", action="store_true")
    p.add_argument("--looped", action="store_true")
    p = _leaf(gsub, "pi", _cmd_gauge_pi)
    p.add_argument("--group", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--looped", action="store_true")
    p.add_argument("--unpointed", action="store_true")
    p = _leaf(gsub, "equiv-s7", _cmd_gauge_equiv_s7)
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kp", type=int, required=True)
    p.add_argument("--locality", default="integral")
    p = _leaf(gsub, "equiv-su5", _cmd_gauge_equiv_su5)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kp", type=int, required=True)

    tables_cmd = sub.add_parser("tables", help="raw table lookups")
    tsub = tables_cmd.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = _leaf(tsub, "lookup", _cmd_tables_lookup)
    p.add_argument("--space", default=None, help="sphere key such as S3")
    p.add_argument("--group", default=None, help="Lie group token such as Sp2")
    p.add_argument("--i", type=int, default=None, help="homotopy degree")
    p.add_argument("--moore", type=int, default=None,
                   help="pi_6 of the Moore space P^4(m)")

    oracle_cmd = sub.add_parser("oracle", help="independent homology oracle")
    osub = oracle_cmd.add_subparsers(dest="subcommand", parser_class=_Parser)
    p = _leaf(osub, "homology", _cmd_oracle_homology)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--complex", default=None, help="chain complex text file")

    _leaf(sub, "selftest", _cmd_selftest, help="run the full acceptance grid")

    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> _Parser:
    """The parser every run uses, built on first use; parsing leaves it unchanged."""
    return build_parser()


def run(argv: list[str]) -> QueryResult:
    """Parse and execute; returns the result instead of exiting.

    Every payload names the subcommand that was parsed, as its success
    payload does, or "" when none was.
    """
    parser = _shared_parser()
    command = ""
    try:
        args, extra = parser.parse_known_args(argv)
        command = getattr(args, "command_name", "")
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        if not command:
            raise UsageError("missing subcommand; see --help")
        result = args.fn(args)
    except UsageError as exc:
        command = command or exc.command
        result = _error_result("usage-error", str(exc), EXIT_USAGE)
    except (ValueError, OSError) as exc:
        result = _error_result("usage-error", str(exc), EXIT_USAGE)
    except OutOfScopeError as exc:
        result = _error_result("out-of-scope", str(exc), EXIT_OUT_OF_SCOPE)
    except UnknownValueError as exc:
        result = _error_result("unknown", str(exc), EXIT_UNKNOWN)
    result.payload["command"] = command
    return result


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    emit_json = "--json" in argv
    result = run(argv)
    text = json.dumps(result.payload, indent=2, sort_keys=True) if emit_json else result.text
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader left early, as `| head` does.  Point stdout at the
        # null device so that the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
