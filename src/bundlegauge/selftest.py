"""The acceptance grid: every check the library must pass, as plain code.

The pytest acceptance module drives these functions and asserts on
them; the CLI ``selftest`` subcommand prints one line per criterion and
exits nonzero on any failure.  Everything here is deterministic (the
randomized algebra checks use a fixed seed).
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

from . import bundles, gauge, manifolds, oracle, tables
from .abelian import (
    TRIVIAL,
    direct_sum,
    localize,
    make_group,
    tensor_with_cyclic,
    tor_with_cyclic,
    vp,
)
from .errors import UnknownValueError
from .spaces import localized, moore, sphere, wedge
from .tables import LieGroupId

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


class CriterionResult(
    namedtuple("CriterionResult", "number name passed detail seconds")
):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail and not self.passed else ""
        return (
            f"criterion {self.number:2d} {self.name:<34s} {status}"
            f"  [{self.seconds:.2f}s]{detail}"
        )


def _grid_specs():
    for m in range(0, 25):
        for l in range(-24, 25):
            yield manifolds.normalize(l, m)


def criterion_1_oracle_equivalence() -> tuple[bool, str]:
    """Closed-form homology equals the Smith-normal-form oracle."""
    start = time.perf_counter()
    mismatches = 0
    count = 0
    for spec in _grid_specs():
        count += 1
        closed = manifolds.homology(spec)
        computed = oracle.homology_of(oracle.complex_for_manifold(spec))
        if closed != computed:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and count == 1225 and elapsed < 5.0
    return ok, f"{count} cases, {mismatches} mismatches, {elapsed:.2f}s"


_PI0_ROWS_M0 = [
    (LieGroupId("Spin", 8), "Z + Z + Z"),
    (LieGroupId("Sp", 2), "Z + Z + Z_2"),
    (LieGroupId("Sp", 3), "Z + Z + Z_2"),
    (LieGroupId("Sp", 5), "Z + Z + Z_2"),
    (LieGroupId("Spin", 5), "Z + Z + Z_2"),
    (LieGroupId("SU", 4), "Z + Z"),
    (LieGroupId("SU", 5), "Z + Z"),
    (LieGroupId("SU", 9), "Z + Z"),
    (LieGroupId("Spin", 6), "Z + Z"),
    (LieGroupId("Spin", 7), "Z + Z"),
    (LieGroupId("Spin", 9), "Z + Z"),
    (LieGroupId("Spin", 12), "Z + Z"),
    (LieGroupId("F4"), "Z"),
    (LieGroupId("E6"), "Z"),
    (LieGroupId("E7"), "Z"),
    (LieGroupId("E8"), "Z"),
]


def criterion_2_pi0_table_m0() -> tuple[bool, str]:
    """Component groups over torsion-free bases, byte-exact."""
    bad = []
    for g, expected in _PI0_ROWS_M0:
        got = gauge.pi0_unpointed_gauge_m0(g, 0).render()
        if got != expected:
            bad.append(f"{g}: {got} != {expected}")
    return not bad, "; ".join(bad) or f"{len(_PI0_ROWS_M0)} rows exact"


# Per family: the copies of Z_(p) in pi_0 of the p-local pointed gauge
# group, next to Z_{p^r} (criterion 3), and pi_1 of the looped one
# (criterion 9).  The pi_1 row is worked out by hand as
# pi_5(G; Z_{p^r}) + pi_9(G)_(p): (copies of Z_(p), copies of Z_{p^r}),
# or None where pi_9(G) is missing from the table.
_PLOCAL_FAMILIES = [
    (LieGroupId("Spin", 8), 2, None),
    (LieGroupId("Sp", 2), 1, (0, 0)),
    (LieGroupId("Sp", 3), 1, (0, 0)),
    (LieGroupId("Spin", 5), 1, (0, 0)),
    (LieGroupId("SU", 4), 1, (0, 1)),
    (LieGroupId("SU", 5), 1, (1, 1)),
    (LieGroupId("SU", 7), 1, (1, 1)),
    (LieGroupId("Spin", 6), 1, (0, 1)),
    (LieGroupId("Spin", 7), 1, None),
    (LieGroupId("Spin", 9), 1, None),
    (LieGroupId("Spin", 11), 1, (0, 0)),
    (LieGroupId("F4"), 0, (0, 0)),
    (LieGroupId("E6"), 0, (1, 0)),
    (LieGroupId("E7"), 0, (0, 0)),
    (LieGroupId("E8"), 0, (0, 0)),
]


def criterion_3_pi0_table_plocal() -> tuple[bool, str]:
    """p-local component groups for m >= 2 match the published rows."""
    bad = []
    checks = 0
    for p in (5, 7, 11):
        for r in (1, 2, 3):
            for g, free_copies, _ in _PLOCAL_FAMILIES:
                for m in (p**r, 6 * p**r):
                    expected = make_group(free_copies, [p**r])
                    expected = localize(expected, p)
                    got = gauge.pi_pointed_gauge_plocal(g, m, 0, 0, p).group
                    checks += 1
                    if got != expected:
                        bad.append(f"{g} p={p} r={r} m={m}: {got} != {expected}")
    return not bad, "; ".join(bad[:4]) or f"{checks} rows exact"


def criterion_4_classification() -> tuple[bool, str]:
    """Bundle classification sets for m = 0, 1 <= ... <= 50."""
    bad = []
    zero_pi6 = [
        LieGroupId("SU", 4),
        LieGroupId("SU", 7),
        LieGroupId("Sp", 2),
        LieGroupId("Sp", 5),
        LieGroupId("Spin", 5),
        LieGroupId("Spin", 7),
        LieGroupId("Spin", 8),
        LieGroupId("Spin", 10),
        LieGroupId("F4"),
        LieGroupId("E6"),
        LieGroupId("E7"),
        LieGroupId("E8"),
    ]
    for g in zero_pi6:
        got = bundles.classify_bundles(g, manifolds.normalize(0, 0))
        if got != make_group(1, []):
            bad.append(f"{g} m=0: {got}")
        for m in range(2, 51):
            got = bundles.classify_bundles(g, manifolds.normalize(0, m))
            if got != make_group(0, [m]):
                bad.append(f"{g} m={m}: {got}")
    table1 = [
        (LieGroupId("SU", 2), make_group(0, [12])),
        (LieGroupId("Sp", 1), make_group(0, [12])),
        (LieGroupId("SU", 3), make_group(0, [6])),
        (LieGroupId("G2"), make_group(0, [3])),
        (LieGroupId("SU", 4), TRIVIAL),
        (LieGroupId("E8"), TRIVIAL),
        (LieGroupId("Sp", 2), TRIVIAL),
    ]
    for g, expected in table1:
        got = bundles.classify_bundles(g, manifolds.normalize(0, 1))
        if got != expected:
            bad.append(f"{g} m=1: {got} != {expected}")
    return not bad, "; ".join(bad[:4]) or "classification exact for m in 0..50"


def _equivalence_classes(universe, related) -> list[set]:
    rows = {x: {y for y in universe if related(x, y)} for x in universe}
    seen = []
    for x in universe:
        if not any(x in block for block in seen):
            seen.append(rows[x])
    return seen


def _relation_laws(universe, related) -> str:
    rows = {x: frozenset(y for y in universe if related(x, y)) for x in universe}
    for x in universe:
        if x not in rows[x]:
            return f"not reflexive at {x}"
    for x in universe:
        for y in rows[x]:
            if x not in rows[y]:
                return f"not symmetric at {x},{y}"
            if rows[y] != rows[x]:
                return f"not transitive at {x},{y}"
    return ""


def criterion_5_equivalence_laws() -> tuple[bool, str]:
    """Both equivalence deciders define true equivalence relations."""
    for m in range(0, 25):
        universe = range(-24, 25)
        specs = {l: manifolds.normalize(l, m) for l in universe}

        def related(a, b):
            return bool(manifolds.is_homotopy_equivalent(specs[a], specs[b]))

        problem = _relation_laws(list(universe), related)
        if problem:
            return False, f"manifolds m={m}: {problem}"
    combos = [
        (LieGroupId("SU", 2), "integral"),
        (LieGroupId("Sp", 1), "integral"),
        (LieGroupId("G2"), "rational"),
        (LieGroupId("G2"), 2),
        (LieGroupId("G2"), 3),
        (LieGroupId("G2"), 5),
        (LieGroupId("SU", 3), "rational"),
        (LieGroupId("SU", 3), 3),
        (LieGroupId("SU", 3), 7),
        (LieGroupId("SU", 4), "integral"),
        (LieGroupId("Sp", 2), "integral"),
        (LieGroupId("Spin", 7), "integral"),
        (LieGroupId("E8"), "integral"),
    ]
    for g, locality in combos:
        universe = list(range(12))

        def related(a, b):
            decision = gauge.s7_gauge_equivalent(g, a, b, locality)
            if decision.verdict == "out-of-scope":
                raise AssertionError(f"unexpected out-of-scope for {g}")
            return bool(decision)

        problem = _relation_laws(universe, related)
        if problem:
            return False, f"S^7 gauge {g} at {locality}: {problem}"
    return True, "reflexive, symmetric, transitive on all grids"


def criterion_6_s7_partition() -> tuple[bool, str]:
    """Gauge groups over S^7 partition classes exactly by gcd with 3."""
    cases = [
        (LieGroupId("SU", 2), "integral", range(12)),
        (LieGroupId("G2"), "rational", range(3)),
        (LieGroupId("SU", 3), "rational", range(6)),
        (LieGroupId("SU", 3), 5, range(6)),
    ]
    bad = []
    for g, locality, universe in cases:
        blocks = _equivalence_classes(
            list(universe),
            lambda a, b: bool(gauge.s7_gauge_equivalent(g, a, b, locality)),
        )
        expected = [
            {k for k in universe if k % 3 == 0},
            {k for k in universe if k % 3 != 0},
        ]
        if sorted(map(sorted, blocks)) != sorted(map(sorted, expected)):
            bad.append(f"{g} at {locality}: {blocks}")
    return not bad, "; ".join(bad) or "partitions {3|k} / {3 not| k} exact"


def criterion_7_suspension() -> tuple[bool, str]:
    """Suspension splittings depend only on the twist class mod 12."""
    exprs = {}
    for l in range(-36, 37):
        exprs[l] = manifolds.suspension(manifolds.normalize(l, 0))
    for l in range(-36, 37):
        for lp in range(-36, 37):
            if (l - lp) % 12 == 0 or (l + lp) % 12 == 0:
                if exprs[l] != exprs[lp]:
                    return False, f"suspension differs for l={l}, l'={lp}"
    if exprs[0] != wedge(sphere(8), sphere(4), sphere(5)):
        return False, f"suspension(0) = {exprs[0]}"
    expected = localized(5, wedge(moore(5, 25), sphere(8)))
    got = manifolds.suspension_plocal(manifolds.normalize(0, 50), 5)
    if got != expected:
        return False, f"plocal suspension m=50: {got}"
    return True, "invariance on |l| <= 36 plus pinned cases"


def criterion_8_sasao_localization() -> tuple[bool, str]:
    """pi_6 of P^4(m) localizes to Z_{p^{v_p(m)}} for p >= 5."""
    bad = []
    for m in range(2, 201):
        for p in (5, 7, 11, 13):
            r = vp(m, p)
            expected = localize(make_group(0, [p**r]), p) if r else TRIVIAL
            got = localize(tables.pi6_moore(m), p)
            if got != expected:
                bad.append(f"m={m} p={p}: {got} != {expected}")
    return not bad, "; ".join(bad[:4]) or "199 x 4 localizations exact"


def criterion_9_looped_plocal() -> tuple[bool, str]:
    """pi_0 and pi_1 of the looped p-local gauge groups match the rows.

    pi_0 is pi_4(G; Z_{p^r}) + pi_8(G)_(p), which vanishes for every
    family at p >= 5.
    """
    bad = []
    checks = 0
    for p, r in ((5, 1), (7, 2)):
        q = p**r
        for g, _, pi1_row in _PLOCAL_FAMILIES:
            for n, row in ((0, (0, 0)), (1, pi1_row)):
                checks += 1
                want = "unknown"
                if row is not None:
                    want = localize(make_group(row[0], [q] * row[1]), p).render()
                try:
                    got = str(gauge.pi_pointed_gauge_plocal(g, q, 1, n, p, looped=True))
                except UnknownValueError:
                    got = "unknown"
                if got != want:
                    bad.append(f"{g} n={n} q={q}: {got} != {want}")
    return not bad, "; ".join(bad[:4]) or f"{checks} rows exact"


def _random_group(rng: random.Random):
    free = rng.randint(0, 3)
    torsion = [rng.randint(2, 36) for _ in range(rng.randint(0, 4))]
    return make_group(free, torsion)


def criterion_10_localization_algebra() -> tuple[bool, str]:
    """Ten thousand randomized identities on the abelian-group ops."""
    rng = random.Random(20240809)
    primes = (2, 3, 5, 7, 11, 13)
    start = time.perf_counter()
    checks = 0
    while checks < 10_000:
        a = _random_group(rng)
        b = _random_group(rng)
        c = _random_group(rng)
        p = rng.choice(primes)
        q = rng.randint(2, 40)
        m1 = rng.randint(1, 4000)
        m2 = rng.randint(1, 4000)
        if localize(direct_sum(a, b), p) != direct_sum(localize(a, p), localize(b, p)):
            return False, f"localize not additive: {a}, {b}, p={p}"
        if vp(m1 * m2, p) != vp(m1, p) + vp(m2, p):
            return False, f"vp not additive at {m1},{m2},{p}"
        if tensor_with_cyclic(direct_sum(a, b), q) != direct_sum(
            tensor_with_cyclic(a, q), tensor_with_cyclic(b, q)
        ):
            return False, f"tensor not additive: {a}, {b}, q={q}"
        if tor_with_cyclic(direct_sum(a, b), q) != direct_sum(
            tor_with_cyclic(a, q), tor_with_cyclic(b, q)
        ):
            return False, f"tor not additive: {a}, {b}, q={q}"
        if not tor_with_cyclic(make_group(a.free_rank, []), q).is_trivial:
            return False, f"tor of free group nonzero: rank {a.free_rank}"
        if make_group(a.free_rank, list(a.invariant_factors)) != a:
            return False, f"canonical form not idempotent: {a}"
        if direct_sum(a, b) != direct_sum(b, a):
            return False, f"direct sum not commutative: {a}, {b}"
        if direct_sum(direct_sum(a, b), c) != direct_sum(a, direct_sum(b, c)):
            return False, f"direct sum not associative: {a}, {b}, {c}"
        if direct_sum(a, TRIVIAL) != a:
            return False, f"trivial group not a unit: {a}"
        checks += 9
    elapsed = time.perf_counter() - start
    return elapsed < 1.0, f"{checks} checks in {elapsed:.3f}s"


CRITERIA = [
    (1, "oracle-homology-grid", criterion_1_oracle_equivalence),
    (2, "pi0-table-torsion-free", criterion_2_pi0_table_m0),
    (3, "pi0-table-p-local", criterion_3_pi0_table_plocal),
    (4, "bundle-classification", criterion_4_classification),
    (5, "equivalence-relation-laws", criterion_5_equivalence_laws),
    (6, "s7-gauge-partition", criterion_6_s7_partition),
    (7, "suspension-invariance", criterion_7_suspension),
    (8, "sasao-localization", criterion_8_sasao_localization),
    (9, "pi-looped-p-local", criterion_9_looped_plocal),
    (10, "localization-algebra", criterion_10_localization_algebra),
]


def run_all() -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(number, name, passed, detail, time.perf_counter() - start)
        )
    return results
