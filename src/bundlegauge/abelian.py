"""Exact arithmetic on finitely generated abelian groups.

A group is stored in canonical form: a free rank plus a chain of
invariant factors d_1 | d_2 | ... | d_s with every d_i >= 2.  Two groups
are isomorphic exactly when their canonical forms are equal, so
isomorphism testing is structural equality.  The chain is reached by
gcd/lcm exchange, and primality by Miller-Rabin over the fewest prime
bases proven for the size of n, so no routine here factors an integer,
and no cost depends on the prime factors of the input.

A group may carry a localization tag "local at p".  Every torsion factor
of a p-local group is a power of p, and free summands print as Z_(p)
instead of Z.  The trivial group is always stored integral, which makes
it a two-sided unit for direct sums regardless of locality.

>>> print(make_group(0, [4, 3]))
Z_12
>>> print(direct_sum(make_group(0, [6]), make_group(0, [4])))
Z_2 + Z_12
>>> print(localize(make_group(1, [24]), 2))
Z_(2) + Z_8
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd

from .errors import LocalityError

__all__ = [
    "AbGroup",
    "Prime",
    "make_group",
    "parse_group",
    "direct_sum",
    "localize",
    "tensor_with_cyclic",
    "tor_with_cyclic",
    "vp",
    "is_prime",
]


# psi_k = _PSI[k - 1] is the least strong pseudoprime to the first k prime
# bases, so those k bases decide every n < psi_k (Jaeschke 1993; Jiang and
# Deng 2014; Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
_MR_LIMIT = _PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n < 3.3 * 10**24.

    Multiples of a base are answered at once, and otherwise the first k
    bases decide any n < psi_k.  At or above psi_13 = 3.3 * 10**24 the
    test raises ValueError: no probable answer is ever returned.

    >>> is_prime(100000000000000003)
    True
    >>> is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    False
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise ValueError(
            f"{n} is beyond the proven range of the primality test "
            f"(n < {_MR_LIMIT})"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:  # the bases so far decide every n < psi
            break
    return True


class Prime(namedtuple("Prime", "value")):
    """A primality-checked prime number."""

    __slots__ = ()

    def __new__(cls, value: int) -> Prime:
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        return super().__new__(cls, value)

    def __str__(self) -> str:
        return str(self.value)


def _as_prime(p: int | Prime) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


def _checked(local_prime: int | None) -> Prime | None:
    # An AbGroup's local prime was tested when the group was built, so a
    # result that inherits it does not test it again.
    return None if local_prime is None else Prime._make((local_prime,))


def _invariant_factors(torsion: list[int]) -> tuple[int, ...]:
    """Rewrite arbitrary cyclic orders as a divisibility chain.

    Z_a + Z_b is isomorphic to Z_gcd(a,b) + Z_lcm(a,b).  Replacing each
    pair (f_i, f_j), i < j, by (gcd, lcm) leaves f_i dividing every later
    order, so one pass yields the chain; the orders that became 1 drop.
    No order is ever factored.
    """
    f = sorted(torsion)
    n = len(f)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = f[i], f[j]
            if b % a:
                g = gcd(a, b)
                f[i], f[j] = g, a // g * b
    return tuple(f[f.count(1) :])  # in a divisibility chain the 1s lead


class AbGroup(namedtuple("AbGroup", "free_rank invariant_factors local_prime")):
    """A finitely generated abelian group in canonical form.

    Instances are immutable and safe to share between threads.  Use
    :func:`make_group`, :func:`localize` or :func:`parse_group` rather
    than the raw constructor; the constructor only validates.
    """

    __slots__ = ()

    def __new__(
        cls,
        free_rank: int,
        invariant_factors: tuple[int, ...],
        local_prime: int | Prime | None = None,
    ) -> AbGroup:
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = 1
        for d in invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if d % prev != 0:
                raise ValueError(f"{invariant_factors} is not a divisibility chain")
            prev = d
        if local_prime is not None:
            p = local_prime = _as_prime(local_prime).value
            if free_rank == 0 and not invariant_factors:
                raise ValueError("the trivial group is stored integral")
            for d in invariant_factors:
                while d % p == 0:
                    d //= p
                if d != 1:
                    raise ValueError(
                        f"factor in a {p}-local group is not a power of {p}"
                    )
        return super().__new__(cls, free_rank, invariant_factors, local_prime)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_integral(self) -> bool:
        return self.local_prime is None

    def order(self) -> int:
        """Number of elements; 0 means infinite.

        >>> make_group(0, [3, 4]).order()
        12
        >>> make_group(1, []).order()
        0
        """
        if self.free_rank > 0:
            return 0
        result = 1
        for d in self.invariant_factors:
            result *= d
        return result

    def render(self) -> str:
        """Canonical text form, parsed back by :func:`parse_group`.

        >>> make_group(2, [2, 12]).render()
        'Z + Z + Z_2 + Z_12'
        >>> localize(make_group(0, [9]), 3).render()
        'Z_9 @ (3)'
        """
        if self.is_trivial:
            return "0"
        free = "Z" if self.local_prime is None else f"Z_({self.local_prime})"
        parts = [free] * self.free_rank
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        text = " + ".join(parts)
        if self.local_prime is not None and self.free_rank == 0:
            text += f" @ ({self.local_prime})"
        return text

    def __str__(self) -> str:
        return self.render()


def make_group(free_rank: int, torsion: list[int] | tuple[int, ...]) -> AbGroup:
    """Build the canonical integral group with the given torsion orders.

    Torsion entries may come in any order and need not form a chain;
    they are rewritten as one by gcd/lcm exchange, without factoring.

    >>> make_group(0, [2, 12])
    AbGroup(free_rank=0, invariant_factors=(2, 12), local_prime=None)
    >>> make_group(0, [4, 3]) == make_group(0, [12])
    True
    """
    for d in torsion:
        if d < 2:
            raise ValueError(f"torsion order {d} < 2")
    return AbGroup(free_rank, _invariant_factors(list(torsion)))


def _build(
    free_rank: int, torsion: list[int], local_prime: int | Prime | None
) -> AbGroup:
    """Internal canonical builder: drops unit factors, normalizes locality."""
    torsion = [d for d in torsion if d > 1]
    if free_rank == 0 and not torsion:
        return TRIVIAL
    return AbGroup(free_rank, _invariant_factors(torsion), local_prime)


TRIVIAL = AbGroup(0, ())
Z = AbGroup(1, ())


def _common_locality(a: AbGroup, b: AbGroup) -> int | None:
    if a.is_trivial:
        return b.local_prime
    if b.is_trivial:
        return a.local_prime
    if a.local_prime != b.local_prime:
        raise LocalityError(
            f"mixed localities: {a.local_prime} vs {b.local_prime}"
        )
    return a.local_prime


def direct_sum(a: AbGroup, b: AbGroup) -> AbGroup:
    """Direct sum in canonical form; free ranks add, torsion merges.

    >>> print(direct_sum(make_group(1, []), make_group(0, [2])))
    Z + Z_2
    >>> direct_sum(TRIVIAL, make_group(0, [5])) == make_group(0, [5])
    True
    """
    return _build(
        a.free_rank + b.free_rank,
        list(a.invariant_factors) + list(b.invariant_factors),
        _checked(_common_locality(a, b)),
    )


def vp(m: int, p: int | Prime) -> int:
    """p-adic valuation of m >= 1: the largest e with p^e | m.

    >>> vp(50, 5)
    2
    >>> vp(7, 5)
    0
    """
    p = _as_prime(p).value
    if m < 1:
        raise ValueError("vp is defined here only for m >= 1")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def localize(a: AbGroup, p: int | Prime) -> AbGroup:
    """Localization at p: Z becomes Z_(p), Z_n becomes Z_{p^{v_p(n)}}.

    Torsion prime to p vanishes.  Localizing an already p-local group is
    the identity; localizing at a different prime is an error.

    >>> print(localize(make_group(0, [12]), 3))
    Z_3 @ (3)
    >>> localize(make_group(0, [12]), 5).is_trivial
    True
    """
    prime = _as_prime(p)
    p = prime.value
    if a.local_prime is not None:
        if a.local_prime == p:
            return a
        raise LocalityError(
            f"group is already local at {a.local_prime}, cannot localize at {p}"
        )
    torsion = [p ** vp(d, prime) for d in a.invariant_factors]
    return _build(a.free_rank, torsion, prime)


def tensor_with_cyclic(a: AbGroup, q: int) -> AbGroup:
    """a (x) Z_q, extended additively over the canonical decomposition.

    >>> print(tensor_with_cyclic(make_group(1, []), 25))
    Z_25
    >>> print(tensor_with_cyclic(make_group(0, [12]), 8))
    Z_4
    """
    if q < 2:
        raise ValueError("cyclic order must be >= 2")
    prime = _checked(a.local_prime)
    # Z_(p) (x) Z_q is the p-part of Z_q; integrally it is Z_q itself.
    torsion = [q if prime is None else prime.value ** vp(q, prime)] * a.free_rank
    torsion.extend(gcd(d, q) for d in a.invariant_factors)
    return _build(0, torsion, prime)


def tor_with_cyclic(a: AbGroup, q: int) -> AbGroup:
    """Tor(a, Z_q): free summands contribute nothing, Z_n gives Z_gcd(n,q).

    >>> tor_with_cyclic(make_group(3, []), 25).is_trivial
    True
    >>> print(tor_with_cyclic(make_group(0, [12]), 8))
    Z_4
    """
    if q < 2:
        raise ValueError("cyclic order must be >= 2")
    torsion = [gcd(d, q) for d in a.invariant_factors]
    return _build(0, torsion, _checked(a.local_prime))


_SUMMAND = re.compile(r"^(?:Z|Z_\((\d+)\)|Z_(\d+))$")
_LOCAL_SUFFIX = re.compile(r"^(.*?)\s*@\s*\((\d+)\)$")


def parse_group(text: str) -> AbGroup:
    """Parse the canonical text form back into a group.

    Accepts exactly what :meth:`AbGroup.render` produces: "0", "Z",
    "Z_12", "Z + Z_2 + Z_12", "Z_(5) + Z_25", "Z_9 @ (3)".

    >>> parse_group("Z + Z_2 + Z_12") == make_group(1, [2, 12])
    True
    >>> parse_group(make_group(0, [8, 3]).render()) == make_group(0, [24])
    True
    """
    text = text.strip()
    suffix_prime: int | None = None
    suffix = _LOCAL_SUFFIX.match(text)
    if suffix:
        text = suffix.group(1).strip()
        suffix_prime = int(suffix.group(2))
    if text == "0":
        return TRIVIAL
    free = 0
    torsion: list[int] = []
    local: int | None = suffix_prime
    for part in text.split("+"):
        part = part.strip()
        m = _SUMMAND.match(part)
        if not m:
            raise ValueError(f"cannot parse group summand {part!r}")
        if m.group(1):
            p = int(m.group(1))
            if local is not None and local != p:
                raise ValueError(f"conflicting localities in {text!r}")
            local = p
            free += 1
        elif m.group(2):
            torsion.append(int(m.group(2)))
        else:
            free += 1
    return _build(free, torsion, local)
