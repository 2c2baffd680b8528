"""Seeded query streams for the three workloads, with their expected outcomes.

Every generator takes a ``random.Random`` and yields queries forever;
the benchmark takes as many as fit in the run.  An expected outcome is
the exit code (CLI) or refusal kind (library) the query must produce,
plus, where a closed form exists, the answer itself.  Expectations come
from ``reference``, never from the package under test.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator, NamedTuple

import reference as ref

GROUPS = (
    "SU2", "Sp1", "SU3", "G2", "SU4", "SU5", "SU6", "SU7", "SU9", "Sp2",
    "Sp3", "Sp5", "Spin5", "Spin6", "Spin7", "Spin8", "Spin9", "Spin10",
    "Spin11", "Spin12", "F4", "E6", "E7", "E8",
)
PI6_ZERO = tuple(g for g in GROUPS if ref.pi6_order(g) == 1)
PI6_NONZERO = tuple(g for g in GROUPS if ref.pi6_order(g) > 1)
# Lie groups whose table stops at degree 8 rather than 9.
SHORT_TABLE = ("Spin7", "Spin8", "Spin9", "Spin10")
PRIMES_GE5 = (5, 7, 11, 13)
SPHERES = (1, 3, 4, 5, 6, 7)

# Refusal kinds, named by the CLI exit code they map to.
ANSWER, USAGE, OUT_OF_SCOPE, UNKNOWN = 0, 1, 2, 3


def display(token: str) -> str:
    """A group token as the package renders it: SU4 -> SU(4)."""
    for fam in ("Spin", "SU", "Sp"):
        if token.startswith(fam):
            return f"{fam}({token[len(fam):]})"
    return token


def _canonical_family(token: str) -> str:
    aliases = {"Sp1": "SU", "Spin5": "Sp", "Spin6": "SU"}
    if token in aliases:
        return aliases[token]
    for fam in ("Spin", "SU", "Sp"):
        if token.startswith(fam):
            return fam
    return token


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _prime_near(rng: random.Random, lo: float, hi: float) -> int:
    return ref.next_prime(_log_uniform(rng, lo, hi))


# --------------------------------------------------------------------------
# cli-oneshot: argv lists with expected exit code and expected result fields.


class CliQuery(NamedTuple):
    argv: tuple[str, ...]
    exit_code: int
    expect: dict | None  # result fields that must match, or None


def _opt(name: str, value) -> str:
    # "--a=-3,5" keeps argparse from reading a negative pair as a flag
    return f"--{name}={value}"


def _closed_homology(m: int) -> list[str]:
    m = abs(m)
    h = ["Z"] + ["0"] * 6 + ["Z"]
    if m == 0:
        h[3] = h[4] = "Z"
    elif m >= 2:
        h[3] = f"Z_{m}"
    return h


def _cli_answer(rng: random.Random, complexes: list[tuple[str, list[str]]]) -> CliQuery:
    kind = rng.randrange(11)
    g = rng.choice(PI6_ZERO)
    l = rng.randint(-30, 30)
    if kind == 0:
        m = 1 if rng.random() < 0.1 else rng.choice((0, rng.randint(2, 60)))
        if m == 1:
            g = rng.choice(GROUPS)
        argv = ["classify", _opt("group", g), _opt("l", l), _opt("m", m)]
        order = ref.pi6_order(g)
        expect = {"set": "Z" if m == 0 else f"Z_{m}" if m >= 2 else
                  (f"Z_{order}" if order > 1 else "0")}
        if rng.random() < 0.5:
            k = rng.randint(-100, 100)
            argv.append(_opt("k", k))
            expect["k"] = k if m == 0 else k % (m if m >= 2 else order)
        return CliQuery(tuple(argv), ANSWER, expect)
    if kind == 1:
        ma = rng.randint(0, 40)
        mb = ma if rng.random() < 0.8 else rng.randint(0, 40)
        a, b = (rng.randint(-30, 30), ma), (rng.randint(-30, 30), mb)
        return CliQuery(
            ("manifold", "equiv", _opt("a", f"{a[0]},{a[1]}"), _opt("b", f"{b[0]},{b[1]}")),
            ANSWER, {"equivalent": ref.manifolds_equivalent(a, b)},
        )
    if kind == 2:
        m = rng.randint(-40, 40)
        return CliQuery(("manifold", "homology", _opt("l", l), _opt("m", m)),
                        ANSWER, {"degrees": _closed_homology(m)})
    if kind == 3:
        if rng.random() < 0.5:
            return CliQuery(("manifold", "suspend", _opt("l", l), _opt("m", rng.choice((0, 1)))),
                            ANSWER, None)
        return CliQuery(("manifold", "suspend", _opt("l", l), _opt("m", rng.randint(2, 80)),
                         _opt("p", rng.choice(PRIMES_GE5))), ANSWER, None)
    if kind == 4:
        k = rng.randint(-50, 50)
        case = rng.randrange(3)
        if case == 0:
            argv = ["gauge", "decompose", _opt("group", g), _opt("l", l), "--m=0", _opt("k", k)]
            if rng.random() < 0.5:
                argv.append("--pointed")
            return CliQuery(tuple(argv), ANSWER, None)
        if case == 1:
            return CliQuery(("gauge", "decompose", _opt("group", g), _opt("l", l), "--m=1"),
                            ANSWER, None)
        p = rng.choice(PRIMES_GE5)
        m = p ** rng.randint(0, 2) * rng.randint(2, 12)
        argv = ["gauge", "decompose", _opt("group", g), _opt("l", l), _opt("m", m), _opt("p", p)]
        if rng.random() < 0.5:
            argv += ["--pointed", "--looped"]
            argv.append(_opt("k", k))
        elif ref.vp(m, p) == 0:
            argv.append(_opt("k", m * rng.randint(-3, 3)))
        else:
            argv.append(_opt("k", k))
        return CliQuery(tuple(argv), ANSWER, None)
    if kind == 5:
        case = rng.randrange(5)
        n = rng.choice((0, 1))
        if case == 0:
            return CliQuery(("gauge", "pi", _opt("group", g), _opt("l", l), "--m=0",
                             _opt("k", rng.randint(-20, 20)), _opt("n", n)), ANSWER, None)
        if case == 1:
            return CliQuery(("gauge", "pi", _opt("group", g), _opt("l", 12 * rng.randint(-3, 3)),
                             "--m=0", "--unpointed"), ANSWER, None)
        p = rng.choice(PRIMES_GE5)
        m = p ** rng.randint(0, 2) * rng.randint(2, 12)
        base = ("gauge", "pi", _opt("group", g), _opt("l", l), _opt("m", m), _opt("p", p))
        if case == 2:
            return CliQuery(base + ("--k=0", _opt("n", n)), ANSWER, None)
        if case == 3:
            return CliQuery(base + (_opt("k", rng.randint(-20, 20)), "--n=0", "--looped"),
                            ANSWER, None)
        return CliQuery(base + ("--k=0", "--n=0", "--unpointed"), ANSWER, None)
    if kind == 6:
        k, kp = rng.randint(-30, 30), rng.randint(-30, 30)
        choice = rng.randrange(4)
        if choice == 0:
            tok, loc = g, rng.choice(("integral", "rational", "5"))
        elif choice == 1:
            tok, loc = rng.choice(("SU2", "Sp1")), "integral"
        elif choice == 2:
            tok, loc = "G2", rng.choice(("rational", "2", "3", "5", "7"))
        else:
            tok, loc = "SU3", rng.choice(("rational", "3", "5", "7"))
        verdict = ref.s7_verdict(tok, k, kp, int(loc) if loc.isdigit() else loc)
        return CliQuery(("gauge", "equiv-s7", _opt("group", tok), _opt("k", k), _opt("kp", kp),
                         _opt("locality", loc)), ANSWER, {"verdict": verdict})
    if kind == 7:
        k, kp = rng.randint(-300, 300), rng.randint(-300, 300)
        return CliQuery(("gauge", "equiv-su5", _opt("k", k), _opt("kp", kp)),
                        ANSWER, {"verdict": ref.su5_verdict(k, kp)})
    if kind == 8:
        case = rng.randrange(3)
        if case == 0:
            return CliQuery(("tables", "lookup", _opt("space", f"S{rng.choice(SPHERES)}"),
                             _opt("i", rng.randint(0, 9))), ANSWER, None)
        if case == 1:
            top = 8 if g in SHORT_TABLE else 9
            return CliQuery(("tables", "lookup", _opt("group", g), _opt("i", rng.randint(0, top))),
                            ANSWER, None)
        return CliQuery(("tables", "lookup", _opt("moore", rng.randint(2, 500))), ANSWER, None)
    if kind == 9:
        m = rng.randint(-40, 40)
        return CliQuery(("oracle", "homology", _opt("l", l), _opt("m", m)),
                        ANSWER, {"degrees": _closed_homology(m)})
    path, degrees = rng.choice(complexes)
    return CliQuery(("oracle", "homology", _opt("complex", path)), ANSWER, {"degrees": degrees})


def _cli_refusal(rng: random.Random, code: int) -> CliQuery:
    g = rng.choice(PI6_ZERO)
    l = rng.randint(-30, 30)
    m = rng.randint(2, 40)
    p = rng.choice(PRIMES_GE5)
    if code == USAGE:
        argv = rng.choice((
            ("classify", _opt("group", rng.choice(("XY3", "SU1", "Sp0", "Spin4", "E9"))),
             _opt("l", l), _opt("m", m)),
            ("gauge", "equiv-s7", "--group=SU3", "--k=1", "--kp=2",
             _opt("locality", rng.choice(("4", "9", "15", "local")))),
            ("gauge", "pi", _opt("group", g), _opt("l", l), _opt("m", m)),
            ("tables", "lookup", "--space=S3", _opt("group", g), "--i=3"),
            ("manifold", "equiv", _opt("a", l), "--b=4,0"),
            ("classify", _opt("group", g), _opt("l", l)),
        ))
    elif code == OUT_OF_SCOPE:
        m_not1 = rng.choice((0, m))
        argv = rng.choice((
            ("classify", _opt("group", rng.choice(PI6_NONZERO)), _opt("l", l), _opt("m", m_not1)),
            ("manifold", "suspend", _opt("l", l), _opt("m", m)),
            ("manifold", "suspend", _opt("l", l), _opt("m", m), "--p=3"),
            ("gauge", "decompose", _opt("group", g), _opt("l", l), _opt("m", m)),
            ("gauge", "decompose", _opt("group", g), _opt("l", l), "--m=0", _opt("p", p)),
            ("gauge", "pi", _opt("group", g), _opt("l", l), "--m=1"),
            ("gauge", "equiv-s7", "--group=G2", "--k=1", "--kp=3"),
        ))
    else:
        argv = rng.choice((
            ("tables", "lookup", "--space=S3", _opt("i", rng.randint(10, 20))),
            ("tables", "lookup", "--group=Spin8", _opt("i", rng.randint(9, 15))),
            ("gauge", "pi", _opt("group", g), _opt("l", 12 * rng.randint(-3, 3)), "--m=0",
             _opt("n", rng.randint(3, 5))),
            ("gauge", "pi", _opt("group", g), _opt("l", l), _opt("m", m), _opt("p", p),
             _opt("k", rng.randint(1, m - 1)), "--unpointed"),
            ("gauge", "decompose", _opt("group", g), _opt("l", l), _opt("m", m), _opt("p", p),
             _opt("k", rng.randint(1, m - 1)), "--pointed"),
        ))
    return CliQuery(argv, code, None)


# Each block of 20 queries holds 14 answers and 2 refusals of each kind.
_CLI_BLOCK = [ANSWER] * 14 + [USAGE, OUT_OF_SCOPE, UNKNOWN] * 2


def cli_queries(rng: random.Random, complexes) -> Iterator[CliQuery]:
    while True:
        block = list(_CLI_BLOCK)
        rng.shuffle(block)
        for code in block:
            q = _cli_answer(rng, complexes) if code == ANSWER else _cli_refusal(rng, code)
            yield CliQuery(("--json",) + q.argv, q.exit_code, q.expect)


def cli_complexes(rng: random.Random) -> list[tuple[str, list[str]]]:
    """Small user complexes for ``oracle homology --complex``, as file
    text, with their closed-form homology rendered by degree."""
    out = []
    for n in (2, 3):
        for klein in (False, True):
            cells, d1, d2, homology = ref.surface_complex(rng, n, klein)
            lines = ["cells: " + " ".join(map(str, cells)), "boundary 1:"]
            lines += [" ".join(map(str, row)) for row in d1]
            lines.append("boundary 2:")
            lines += [" ".join(map(str, row)) for row in d2]
            degrees = [
                " + ".join(["Z"] * free + [f"Z_{t}" for t in tors]) or "0"
                for free, tors in homology
            ]
            out.append(("\n".join(lines) + "\n", degrees))
    return out


def cli_answer_fields(payload: dict, exit_code: int) -> dict:
    """The answer-bearing part of a CLI JSON document: exit code, status
    and result, without the command echo and without prose."""
    result = payload.get("result")
    if isinstance(result, dict):
        result = {k: v for k, v in result.items() if k != "reason"}
    return {"exit": exit_code, "status": payload.get("status"), "result": result}


# --------------------------------------------------------------------------
# In-process queries: library-sweep and exact-heavy.


class Query(NamedTuple):
    kind: str
    key: tuple  # hashable description of the inputs, for the repeat share
    call: Callable  # call(bg) -> result, bg being the bundlegauge package
    expect: int  # ANSWER or the refusal kind
    check: Callable | None  # check(result) -> bool for answers


def _q(kind, key, call, expect=ANSWER, check=None) -> Query:
    return Query(kind, (kind,) + key, call, expect, check)


def _decompose_expect(token, m, k, p, pointed, looped):
    """Expected rendering of the p-local decomposition (m >= 2)."""
    G = display(token)
    k %= m
    r = ref.vp(m, p)
    if pointed:
        if looped is None:
            looped = k != 0
        if not looped:
            if k != 0:
                return UNKNOWN, None
            inner = f"O^7[{G}] x O^3[{G}]{{{p ** r}}}" if r else f"O^7[{G}]"
            return ANSWER, f"{inner} @ ({p})"
        inner = f"O^8[{G}] x O^4[{G}]{{{p ** r}}}" if r else f"O^8[{G}]"
        return ANSWER, f"{inner} @ ({p})"
    if looped:
        return USAGE, None
    if r == 0:
        return (OUT_OF_SCOPE, None) if k else (ANSWER, f"{G} x O^7[{G}] @ ({p})")
    if k % p ** r == 0:
        return ANSWER, f"O^1[{G}] x O^8_0[{G}] x O^4_0[{G}]{{{m}}} @ ({p})"
    return ANSWER, f"O^8_0[{G}] x X_{k} @ ({p})"


def _m0_expect(token, l, k, pointed):
    G = display(token)
    t = ref.twist(l)
    if pointed:
        return f"O^3[{G}] x O^4[{G}] x O^7[{G}]" if t == 0 else f"O^4[{G}] x Map*(Y_{t}, {G})"
    if t == 0:
        return f"G^{k}(S^4) x O^3[{G}] x O^7[{G}]"
    return f"G^{k}(S^4) x Map*(Y_{t}, {G})"


def _renders(expected):
    return lambda res: res.expr.render() == expected


def _is_local(p):
    return lambda res: (res.group.local_prime == p) != res.group.is_trivial


_PI0_M0 = {"Spin8": (3, ()), "Sp": (2, (2,)), "SU": (2, ()), "Spin": (2, ())}


def _library_query(kind: str, rng: random.Random, groups: dict) -> Query:
    token = rng.choice(GROUPS)
    g = groups[token]
    pi6 = ref.pi6_order(token)
    l = rng.randint(-1000, 1000)
    p = rng.choice(PRIMES_GE5)
    m2 = max(2, p ** rng.randint(0, 2) * rng.randint(1, 200))
    m = rng.choice((0, m2))
    k = rng.choice((rng.randint(-1000, 1000), m2 * rng.randint(-5, 5), p * rng.randint(-200, 200)))
    refuse = pi6 > 1  # pi_6(G) != 0 puts every m != 1 question out of scope

    if kind == "normalize":
        mm = rng.randint(-1000, 1000)
        ls, ms = ref.normalize_sign(l, mm)
        return _q(kind, (l, mm), lambda bg: bg.normalize(l, mm), check=lambda s: (
            s.m == ms and s.l in (ls, -ls - ms) and abs(s.l) <= abs(-s.l - ms)))
    if kind == "classify_bundles":
        if rng.random() < 0.05:
            m = 1
        if refuse and m != 1:
            return _q(kind, (token, l, m), lambda bg: bg.classify_bundles(g, bg.normalize(l, m)),
                      OUT_OF_SCOPE)
        want = (1, ()) if m == 0 else (0, (m,)) if m >= 2 else (0, ((pi6,) if pi6 > 1 else ()))
        return _q(kind, (token, l, m), lambda bg: bg.classify_bundles(g, bg.normalize(l, m)),
                  check=lambda a: (a.free_rank, a.invariant_factors) == want)
    if kind == "reduce_class":
        call = lambda bg: bg.reduce_class(g, bg.normalize(l, m), k)  # noqa: E731
        if refuse and m != 1:
            return _q(kind, (token, l, m, k), call, OUT_OF_SCOPE)
        modulus = 0 if m == 0 else m if m >= 2 else pi6
        want = (k if m == 0 else k % modulus, modulus)
        return _q(kind, (token, l, m, k), call, check=lambda b: (b.k, b.modulus) == want)
    if kind == "is_homotopy_equivalent":
        a = (l, rng.randint(-1000, 1000))
        b = (rng.randint(-1000, 1000), a[1] if rng.random() < 0.75 else rng.randint(-1000, 1000))
        want = ref.manifolds_equivalent(a, b)
        return _q(kind, a + b,
                  lambda bg: bg.is_homotopy_equivalent(bg.normalize(*a), bg.normalize(*b)),
                  check=lambda d: d.equivalent == want)
    if kind == "run_query":
        pointed = rng.random() < 0.5
        looped = pointed and rng.random() < 0.5
        loc = "integral" if m == 0 else p

        def call(bg):
            bundle = bg.reduce_class(g, bg.normalize(l, m), k)
            return bg.run_query(bg.GaugeQuery(bundle, pointed=pointed, looped=int(looped),
                                              locality=loc))

        key = (token, l, m, k, pointed, looped)
        if refuse:
            return _q(kind, key, call, OUT_OF_SCOPE)
        if m == 0:
            return _q(kind, key, call, check=_renders(_m0_expect(token, l, k, pointed)))
        outcome, want = _decompose_expect(token, m, k, p, pointed, looped if pointed else None)
        return _q(kind, key, call, outcome, want and _renders(want))
    if kind in ("decompose_unpointed_m0", "decompose_pointed_m0"):
        pointed = kind == "decompose_pointed_m0"
        call = lambda bg: getattr(bg, kind)(g, l, k)  # noqa: E731
        if refuse:
            return _q(kind, (token, l, k), call, OUT_OF_SCOPE)
        return _q(kind, (token, l, k), call, check=_renders(_m0_expect(token, l, k, pointed)))
    if kind == "decompose_plocal":
        pointed = rng.random() < 0.5
        looped = rng.choice((None, True, False)) if pointed else None
        key = (token, l, m2, k, p, pointed, looped)
        call = lambda bg: bg.decompose_plocal(g, l, m2, k, p, pointed=pointed, looped=looped)  # noqa: E731
        if refuse:
            return _q(kind, key, call, OUT_OF_SCOPE)
        outcome, want = _decompose_expect(token, m2, k, p, pointed, looped)
        return _q(kind, key, call, outcome, want and _renders(want))
    if kind == "pi_pointed_gauge_m0":
        n = rng.choice((0, 1))
        call = lambda bg: bg.pi_pointed_gauge_m0(g, l, k, n)  # noqa: E731
        if refuse:
            return _q(kind, (token, l, k, n), call, OUT_OF_SCOPE)
        return _q(kind, (token, l, k, n), call,
                  check=lambda v: v.complete == (ref.twist(l) == 0))
    if kind == "pi_pointed_gauge_plocal":
        looped = rng.choice((None, True))
        kk = k if looped else rng.choice((0, k))
        n = 0 if looped or kk % m2 else rng.choice((0, 1))
        key = (token, m2, kk, n, p, looped)
        call = lambda bg: bg.pi_pointed_gauge_plocal(g, m2, kk, n, p, looped=looped)  # noqa: E731
        if refuse:
            return _q(kind, key, call, OUT_OF_SCOPE)
        return _q(kind, key, call, check=_is_local(p))
    if kind == "pi0_unpointed_gauge_m0":
        ll = 12 * rng.randint(-5000, 5000) if rng.random() < 0.75 else l
        call = lambda bg: bg.pi0_unpointed_gauge_m0(g, ll)  # noqa: E731
        if refuse or ll % 12:
            return _q(kind, (token, ll), call, OUT_OF_SCOPE)
        fam = _canonical_family(token)
        want = _PI0_M0.get("Spin8" if token == "Spin8" else fam, (1, ()))
        return _q(kind, (token, ll), call,
                  check=lambda a: (a.free_rank, a.invariant_factors) == want)
    if kind == "pi0_unpointed_gauge_plocal":
        call = lambda bg: bg.pi0_unpointed_gauge_plocal(g, m2, 0, p)  # noqa: E731
        if refuse:
            return _q(kind, (token, m2, p), call, OUT_OF_SCOPE)
        return _q(kind, (token, m2, p), call,
                  check=lambda a: (a.local_prime == p) != a.is_trivial)
    if kind == "s7_gauge_equivalent":
        if rng.random() < 0.5:
            token = rng.choice(PI6_NONZERO)
            g = groups[token]
        loc = rng.choice(("integral", "rational", 2, 3, 5, 7))
        kp = rng.randint(-1000, 1000)
        want = ref.s7_verdict(token, k, kp, loc)
        return _q(kind, (token, k, kp, loc), lambda bg: bg.s7_gauge_equivalent(g, k, kp, loc),
                  check=lambda d: d.verdict == want)
    if kind == "su5_gauge_equivalent_m0":
        k1, k2 = rng.randint(-5000, 5000), rng.randint(-5000, 5000)
        want = ref.su5_verdict(k1, k2)
        return _q(kind, (k1, k2), lambda bg: bg.su5_gauge_equivalent_m0(k1, k2),
                  check=lambda d: d.verdict == want)
    raise ValueError(kind)


LIBRARY_KINDS = (
    "normalize", "classify_bundles", "reduce_class", "is_homotopy_equivalent",
    "run_query", "decompose_unpointed_m0", "decompose_pointed_m0", "decompose_plocal",
    "pi_pointed_gauge_m0", "pi_pointed_gauge_plocal", "pi0_unpointed_gauge_m0",
    "pi0_unpointed_gauge_plocal", "s7_gauge_equivalent", "su5_gauge_equivalent_m0",
)


def library_queries(rng: random.Random, bg) -> Iterator[Query]:
    """One call of every public operation per round, in a shuffled order,
    so that every seed draws the same mix of operations."""
    groups = {t: bg.LieGroupId.parse(t) for t in GROUPS}
    kinds = list(LIBRARY_KINDS)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield _library_query(kind, rng, groups)


def answer_of(outcome) -> object:
    """A JSON form of a library answer, without prose, for the golden file."""
    if isinstance(outcome, BaseException):
        return ["refused", type(outcome).__name__]
    name = type(outcome).__name__
    if name == "ManifoldSpec":
        return [outcome.l, outcome.m]
    if name == "AbGroup":
        return outcome.render()
    if name == "BundleClass":
        return [outcome.k, outcome.modulus]
    if name == "EquivalenceDecision":
        return outcome.equivalent
    if name == "DecompositionResult":
        return [outcome.expr.render(), outcome.loops]
    if name in ("S7Decision", "Su5Decision"):
        return outcome.verdict
    if name == "LocalPiResult":
        return outcome.group.render()
    return str(outcome)


# --------------------------------------------------------------------------
# exact-heavy: large primes, dense and sparse integer matrices.

EXACT_KINDS = (
    "classify-prime", "classify-near-prime", "make-group", "is-prime",
    "s7-large-locality", "snf-dense", "homology-surface",
)


def _snf_check(rows):
    def check(res):
        rank, det = ref.bareiss_rank_det(rows)
        if res.rank != rank:
            return False
        if det == 0:
            return True
        return math.prod(res.diagonal) == abs(det)
    return check


def _exact_query(kind: str, rng: random.Random, groups: dict) -> Query:
    token = rng.choice(PI6_ZERO)
    g = groups[token]
    if kind in ("classify-prime", "classify-near-prime"):
        if kind == "classify-prime":
            m = _prime_near(rng, 1e10, 1e12)
        else:
            m = _prime_near(rng, 1e5, 1e6) * _prime_near(rng, 1e5, 1e7)
        l = rng.randint(-60, 60)
        return _q(kind, (token, l, m), lambda bg: bg.classify_bundles(g, bg.normalize(l, m)),
                  check=lambda a: (a.free_rank, a.invariant_factors) == (0, (m,)))
    if kind == "make-group":
        orders = [_prime_near(rng, 1e9, 1e11) for _ in range(2)]
        want = ref.invariant_factors(orders)
        return _q(kind, tuple(orders), lambda bg: bg.make_group(0, orders),
                  check=lambda a: a.invariant_factors == want)
    if kind == "is-prime":
        if rng.random() < 0.5:
            n = _prime_near(rng, 1e10, 1e12)
        else:
            n = _prime_near(rng, 1e5, 1e6) * _prime_near(rng, 1e6, 1e7)
        want = ref.is_prime(n)
        return _q(kind, (n,), lambda bg: bg.abelian.is_prime(n), check=lambda r: r == want)
    if kind == "s7-large-locality":
        token = rng.choice(GROUPS)
        g = groups[token]
        big = _prime_near(rng, 1e10, 1e12)
        k, kp = rng.randint(-50, 50), rng.randint(-50, 50)
        want = ref.s7_verdict(token, k, kp, big)
        return _q(kind, (token, k, kp, big),
                  lambda bg: bg.s7_gauge_equivalent(g, k, kp, bg.Prime(big).value),
                  check=lambda d: d.verdict == want)
    if kind == "snf-dense":
        rows = ref.random_dense(rng, rng.randint(12, 28))
        return _q(kind, tuple(map(tuple, rows)),
                  lambda bg: bg.smith_normal_form(bg.IntMatrix.from_rows(rows)),
                  check=_snf_check(rows))
    if kind == "homology-surface":
        n = rng.randint(5, 8)
        cells, d1, d2, want = ref.surface_complex(rng, n, klein=rng.random() < 0.5)

        def call(bg):
            cx = bg.ChainComplex.build(list(cells), {
                1: bg.IntMatrix.from_rows(d1, cols=cells[1]),
                2: bg.IntMatrix.from_rows(d2, cols=cells[2]),
            })
            return bg.homology_of(cx)

        return _q(kind, (n, str(d2)), call, check=lambda hs: tuple(
            (h.free_rank, h.invariant_factors) for h in hs) == want)
    raise ValueError(kind)


def exact_queries(rng: random.Random, bg) -> Iterator[Query]:
    groups = {t: bg.LieGroupId.parse(t) for t in GROUPS}
    kinds = list(EXACT_KINDS)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield _exact_query(kind, rng, groups)
