import math
from pathlib import Path

import pytest

from bundlegauge import abelian
from hypothesis import given, strategies as st

from bundlegauge.abelian import (
    _MR_BASES,
    TRIVIAL,
    AbGroup,
    Prime,
    direct_sum,
    is_prime,
    localize,
    make_group,
    parse_group,
    tensor_with_cyclic,
    tor_with_cyclic,
    vp,
)
from bundlegauge.errors import LocalityError


groups = st.builds(
    make_group,
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=2, max_value=40), max_size=4),
)
primes = st.sampled_from([2, 3, 5, 7, 11, 13])


class TestMakeGroup:
    def test_coprime_factors_merge(self):
        # 4 and 3 are coprime, so the chain collapses to a single factor.
        assert make_group(0, [4, 3]) == make_group(0, [12])
        assert make_group(0, [4, 3]).render() == "Z_12"

    def test_free_only(self):
        assert make_group(1, []).render() == "Z"

    def test_primary_decomposition_reassembly(self):
        # 2-primary exponents {1,2} and 3-primary {1} give the chain (2, 12).
        g = make_group(0, [2, 12])
        assert g.invariant_factors == (2, 12)
        assert g.render() == "Z_2 + Z_12"

    def test_rejects_small_torsion(self):
        with pytest.raises(ValueError):
            make_group(0, [1])
        with pytest.raises(ValueError):
            make_group(0, [0])

    def test_rejects_broken_chain_in_raw_constructor(self):
        with pytest.raises(ValueError):
            AbGroup(0, (4, 6))


def primary_invariant_factors(orders):
    """Invariant factors through the primary decomposition: factor each
    order by trial division, sort each prime's exponents, recombine.
    A route of its own, independent of the gcd/lcm exchange under test."""
    exponents = {}
    for n in orders:
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            exponents.setdefault(n, []).append(1)
    depth = max((len(v) for v in exponents.values()), default=0)
    chain = [1] * depth
    for p, e_list in exponents.items():
        for j, e in enumerate(sorted(e_list, reverse=True)):
            chain[j] *= p**e
    return tuple(reversed(chain))


class TestAgainstPrimaryDecomposition:
    @given(
        st.integers(0, 3),
        st.lists(st.integers(min_value=2, max_value=10_000), max_size=6),
    )
    def test_make_group(self, rank, orders):
        g = make_group(rank, orders)
        assert g.free_rank == rank
        assert g.invariant_factors == primary_invariant_factors(orders)


class TestIsomorphism:
    def test_crt(self):
        assert make_group(0, [12]) == make_group(0, [4, 3])

    def test_element_orders_differ(self):
        assert make_group(0, [2, 2]) != make_group(0, [4])


class TestDirectSum:
    def test_free_plus_torsion(self):
        s = direct_sum(make_group(1, []), make_group(0, [2]))
        assert s.free_rank == 1 and s.invariant_factors == (2,)

    def test_torsion_refactors(self):
        assert direct_sum(make_group(0, [6]), make_group(0, [4])) == make_group(
            0, [2, 12]
        )

    def test_trivial_is_unit_across_localities(self):
        a = localize(make_group(2, [5]), 5)
        assert direct_sum(TRIVIAL, a) == a
        assert direct_sum(a, TRIVIAL) == a

    def test_mixed_locality_rejected(self):
        a = localize(make_group(1, []), 5)
        with pytest.raises(LocalityError):
            direct_sum(a, make_group(1, []))


class TestLocalize:
    def test_kills_coprime_torsion(self):
        assert localize(make_group(0, [12]), 5).is_trivial

    def test_extracts_p_part(self):
        assert localize(make_group(0, [12]), 3) == localize(make_group(0, [3]), 3)

    def test_free_summand_tagged(self):
        g = localize(make_group(1, [24]), 2)
        assert g.local_prime == 2
        assert g.render() == "Z_(2) + Z_8"

    def test_same_prime_idempotent(self):
        g = localize(make_group(1, [24]), 2)
        assert localize(g, 2) == g

    def test_other_prime_rejected(self):
        g = localize(make_group(1, [24]), 2)
        with pytest.raises(LocalityError):
            localize(g, 3)


class TestTensorTor:
    def test_free_tensor(self):
        assert tensor_with_cyclic(make_group(1, []), 25) == make_group(0, [25])

    def test_free_tor(self):
        assert tor_with_cyclic(make_group(1, []), 25).is_trivial

    def test_gcd_rule(self):
        assert tensor_with_cyclic(make_group(0, [12]), 8) == make_group(0, [4])
        assert tor_with_cyclic(make_group(0, [12]), 8) == make_group(0, [4])

    def test_rejects_unit_modulus(self):
        with pytest.raises(ValueError):
            tensor_with_cyclic(TRIVIAL, 1)


# Z_(5) + Z_25, built before any test counts primality tests.
LOCAL_AT_5 = localize(make_group(1, [25]), Prime(5))


class TestInheritedPrimeIsNotRetested:
    """A group's local prime was tested when the group was built, so a
    result that inherits it runs no new primality test."""

    @pytest.fixture
    def tests_run(self, monkeypatch):
        calls = []
        real = abelian.is_prime
        monkeypatch.setattr(abelian, "is_prime", lambda n: calls.append(n) or real(n))
        return calls

    @pytest.mark.parametrize(
        "operation,expected",
        [
            (lambda a: direct_sum(a, a), AbGroup(2, (25, 25), 5)),
            (lambda a: direct_sum(TRIVIAL, a), LOCAL_AT_5),
            (lambda a: tensor_with_cyclic(a, 10), AbGroup(0, (5, 5), 5)),
            (lambda a: tor_with_cyclic(a, 10), AbGroup(0, (5,), 5)),
        ],
        ids=["direct-sum", "direct-sum-trivial", "tensor", "tor"],
    )
    def test_an_operation_on_a_local_group_tests_no_prime(
        self, tests_run, operation, expected
    ):
        result = operation(LOCAL_AT_5)
        assert tests_run == []
        assert result == expected
        assert type(result.local_prime) is int

    def test_a_parsed_prime_is_tested_once(self, tests_run):
        assert parse_group("Z_(5) + Z_25") == LOCAL_AT_5
        assert tests_run == [5]

    @pytest.mark.parametrize("text", ["Z_(4)", "Z_4 @ (4)", "Z_(9) + Z_9"])
    def test_a_parsed_composite_is_refused(self, text):
        with pytest.raises(ValueError) as refused:
            parse_group(text)
        assert refused.type is ValueError
        assert str(refused.value).endswith(" is not prime")


class TestVp:
    def test_examples(self):
        assert vp(50, 5) == 2
        assert vp(7, 5) == 0
        assert vp(1500, 5) == 3  # 1500 = 2^2 * 3 * 5^3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            vp(0, 5)

    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError):
            vp(10, 6)


class TestPrime:
    def test_accepts_primes(self):
        assert Prime(2).value == 2
        assert Prime(13).value == 13

    def test_rejects_composites(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                Prime(bad)

    def test_no_other_module_tests_primality(self):
        # Primality is checked in one place: every other module takes its
        # primes through Prime.
        calls = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(abelian.__file__).parent.glob("*.py"))
            if path.name != "abelian.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if "is_prime(" in line
        ]
        assert calls == []


def _strong_probable_prime(n: int, a: int) -> bool:
    """The strong Fermat test of odd n to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**j, n) == n - 1 for j in range(s))


class TestIsPrime:
    def test_agrees_with_a_sieve_below_1e5(self):
        n = 100_000
        sieve = bytearray([1]) * n
        sieve[0] = sieve[1] = 0
        for i in range(2, 317):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
        assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]

    @pytest.mark.parametrize(
        "n,factors",
        [
            (3215031751, (151, 751, 28351)),
            (3825123056546413051, (149491, 747451, 34233211)),
            (318665857834031151167461, (399165290221, 798330580441)),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, factors):
        # Strong pseudoprimes to every prime base up to 7, 31 and 37:
        # only the bases 11, 37 and 41 respectively expose them.
        assert math.prod(factors) == n
        assert not is_prime(n)

    # Each distinct psi_k below the limit, with the largest k it belongs
    # to and its factors (Jaeschke 1993; Jiang and Deng 2014).
    @pytest.mark.parametrize(
        "psi,k,factors",
        [
            (2047, 1, (23, 89)),
            (1373653, 2, (829, 1657)),
            (25326001, 3, (2251, 11251)),
            (3215031751, 4, (151, 751, 28351)),
            (2152302898747, 5, (6763, 10627, 29947)),
            (3474749660383, 6, (1303, 16927, 157543)),
            (341550071728321, 8, (10670053, 32010157)),
            (3825123056546413051, 11, (149491, 747451, 34233211)),
            (318665857834031151167461, 12, (399165290221, 798330580441)),
        ],
    )
    def test_each_witness_bound_is_composite(self, psi, k, factors):
        # psi passes the first k bases, so a table that let those bases
        # decide it would call it prime.
        assert math.prod(factors) == psi
        for a in _MR_BASES[:k]:
            assert _strong_probable_prime(psi, a), a
        assert not _strong_probable_prime(psi, _MR_BASES[k])
        assert not is_prime(psi)

    @pytest.mark.parametrize("psi", [1373653, 25326001, 3215031751])
    def test_agrees_with_trial_division_around_a_witness_bound(self, psi):
        lo, hi = psi - 10**4, psi + 10**4 + 1
        composite = bytearray(hi - lo)
        for d in range(2, math.isqrt(hi) + 1):
            for n in range(max(d * d, -(-lo // d) * d), hi, d):
                composite[n - lo] = 1
        assert [n for n in range(lo, hi) if is_prime(n)] == [
            n for n in range(lo, hi) if not composite[n - lo]
        ]

    def test_large_prime_answered(self):
        assert is_prime(1_000_000_000_000_000_003)
        assert not is_prime(1_000_000_000_000_000_001)

    def test_refuses_beyond_the_proven_range(self):
        # 1287836182261 * 2575672364521 is a strong pseudoprime to all 13
        # bases: the least one, so every smaller n is decided exactly.
        with pytest.raises(ValueError, match="proven range"):
            is_prime(3317044064679887385961981)
        with pytest.raises(ValueError, match="proven range"):
            Prime(3400000000000000000000009)

    def test_multiples_of_a_base_answered_beyond_the_range(self):
        assert not is_prime(41 * 10**30)
        assert is_prime(41)


class TestRendering:
    @pytest.mark.parametrize(
        "group,text",
        [
            (TRIVIAL, "0"),
            (make_group(1, []), "Z"),
            (make_group(0, [12]), "Z_12"),
            (make_group(1, [2, 12]), "Z + Z_2 + Z_12"),
            (localize(make_group(1, []), 5), "Z_(5)"),
            (localize(make_group(0, [25]), 5), "Z_25 @ (5)"),
            (localize(make_group(2, [5]), 5), "Z_(5) + Z_(5) + Z_5"),
        ],
    )
    def test_render(self, group, text):
        assert group.render() == text

    @given(groups)
    def test_round_trip_integral(self, g):
        assert parse_group(g.render()) == g

    @given(groups, primes)
    def test_round_trip_local(self, g, p):
        local = localize(g, p)
        assert parse_group(local.render()) == local

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_group("Z_2 x Z_3")


class TestAlgebraProperties:
    @given(groups)
    def test_canonicalization_idempotent(self, g):
        assert make_group(g.free_rank, list(g.invariant_factors)) == g

    @given(groups, groups)
    def test_direct_sum_commutative(self, a, b):
        assert direct_sum(a, b) == direct_sum(b, a)

    @given(groups, groups, groups)
    def test_direct_sum_associative(self, a, b, c):
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))

    @given(groups)
    def test_trivial_unit(self, a):
        assert direct_sum(a, TRIVIAL) == a

    @given(groups, groups, primes)
    def test_localize_distributes(self, a, b, p):
        assert localize(direct_sum(a, b), p) == direct_sum(
            localize(a, p), localize(b, p)
        )

    @given(st.integers(1, 10_000), st.integers(1, 10_000), primes)
    def test_vp_additive(self, m, n, p):
        assert vp(m * n, p) == vp(m, p) + vp(n, p)

    @given(groups, groups, st.integers(2, 60))
    def test_tensor_distributes(self, a, b, q):
        assert tensor_with_cyclic(direct_sum(a, b), q) == direct_sum(
            tensor_with_cyclic(a, q), tensor_with_cyclic(b, q)
        )

    @given(groups, groups, st.integers(2, 60))
    def test_tor_distributes(self, a, b, q):
        assert tor_with_cyclic(direct_sum(a, b), q) == direct_sum(
            tor_with_cyclic(a, q), tor_with_cyclic(b, q)
        )

    @given(st.integers(0, 5), st.integers(2, 60))
    def test_tor_of_free_vanishes(self, rank, q):
        assert tor_with_cyclic(make_group(rank, []), q).is_trivial


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: AbGroup(0, (1,)), "invariant factor 1 < 2"),
        (lambda: AbGroup(0, (4,), 4), "4 is not prime"),
        (lambda: AbGroup(0, (6,), 5), "factor in a 5-local group is not a power of 5"),
    ],
)
def test_raw_constructor_refusals(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()
