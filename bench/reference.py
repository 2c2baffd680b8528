"""Reference answers that share no code with the package under test.

Each function here recomputes, by its own route, something the benchmark
asks the package for: primality by deterministic Miller-Rabin, rank and
determinant by Bareiss elimination, invariant factors by gcd/lcm
exchange, homology of cell complexes by closed form, and the decision
rules of the manifold and gauge classifications from their statements.
"""

from __future__ import annotations

import random
from math import gcd

# The first 13 primes are a deterministic Miller-Rabin witness set for
# every n < 3.3 * 10**24 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError("outside the proven range of the witness set")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def bareiss_rank_det(rows: list[list[int]]) -> tuple[int, int]:
    """Rank, and for a square matrix its determinant, by fraction-free
    elimination: every intermediate entry is a minor, so each division
    is exact and entries never exceed Hadamard's bound."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank, prev, sign = 0, 1, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for i in range(rank + 1, nrows):
            row = a[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    det = sign * prev if nrows == ncols and rank == nrows else 0
    return rank, det


def invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Divisibility chain of a product of cyclic groups, by repeatedly
    replacing a pair (a, b) with (gcd, lcm); no factoring needed."""
    chain = sorted(d for d in orders if d > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                a, b = chain[i], chain[j]
                if b % a:
                    g = gcd(a, b)
                    chain[i], chain[j] = g, a // g * b
                    changed = True
        chain = sorted(d for d in chain if d > 1)
    return tuple(chain)


def random_dense(rng: random.Random, n: int, bound: int = 9) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def surface_complex(rng: random.Random, n: int, klein: bool):
    """Square-cell structure of the torus or the Klein bottle on an n x n
    grid, with cells shuffled and orientations flipped at random.

    Returns (cells, d1, d2, homology) where d1, d2 are lists of rows with
    entries in {-1, 0, 1} and homology is the closed form as
    (free rank, torsion tuple) per degree.
    """

    def flip(y_block: int) -> bool:
        return klein and y_block % 2 == 1

    def vertex(x: int, y: int) -> int:
        q, y = divmod(y, n)
        if flip(q):
            x = -x
        return (x % n) * n + y

    def h_edge(x: int, y: int) -> tuple[int, int]:
        # from (x, y) to (x + 1, y); a reflection reverses it
        q, y = divmod(y, n)
        if flip(q):
            return ((-x - 1) % n) * n + y, -1
        return (x % n) * n + y, 1

    def v_edge(x: int, y: int) -> tuple[int, int]:
        # from (x, y) to (x, y + 1)
        q, y = divmod(y, n)
        if flip(q):
            x = -x
        return n * n + (x % n) * n + y, 1

    nv, ne, nf = n * n, 2 * n * n, n * n
    d1 = [[0] * ne for _ in range(nv)]
    for x in range(n):
        for y in range(n):
            e, _ = h_edge(x, y)
            d1[vertex(x + 1, y)][e] += 1
            d1[vertex(x, y)][e] -= 1
            e, _ = v_edge(x, y)
            d1[vertex(x, y + 1)][e] += 1
            d1[vertex(x, y)][e] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for x in range(n):
        for y in range(n):
            f = x * n + y
            for (e, s), sign in (
                (h_edge(x, y), 1),
                (v_edge(x + 1, y), 1),
                (h_edge(x, y + 1), -1),
                (v_edge(x, y), -1),
            ):
                d2[e][f] += s * sign

    pv, pe, pf = (rng.sample(range(k), k) for k in (nv, ne, nf))
    se = [rng.choice((1, -1)) for _ in range(ne)]
    sf = [rng.choice((1, -1)) for _ in range(nf)]
    d1p = [[0] * ne for _ in range(nv)]
    for i in range(nv):
        for j in range(ne):
            if d1[i][j]:
                d1p[pv[i]][pe[j]] = d1[i][j] * se[j]
    d2p = [[0] * nf for _ in range(ne)]
    for i in range(ne):
        for j in range(nf):
            if d2[i][j]:
                d2p[pe[i]][pf[j]] = d2[i][j] * se[i] * sf[j]
    if klein:
        homology = ((1, ()), (1, (2,)), (0, ()))
    else:
        homology = ((1, ()), (2, ()), (1, ()))
    return (nv, ne, nf), d1p, d2p, homology


# Decision rules, restated from the theorems the package implements.

PI6_ORDER = {"SU2": 12, "Sp1": 12, "SU3": 6, "G2": 3}


def pi6_order(token: str) -> int:
    return PI6_ORDER.get(token, 1)


def normalize_sign(l: int, m: int) -> tuple[int, int]:
    return (-l, -m) if m < 0 else (l, m)


def manifolds_equivalent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (la, ma), (lb, mb) = normalize_sign(*a), normalize_sign(*b)
    if ma != mb:
        return False
    if ma == 1:
        return True
    if ma == 0:
        return (la - lb) % 12 == 0 or (la + lb) % 12 == 0
    g = gcd(ma, 12)
    return any(
        (u * u - 1) % g == 0 and (lb - u * la) % g == 0 for u in range(g)
    )


def s7_verdict(token: str, k: int, kp: int, locality) -> str:
    order = pi6_order(token)
    if order == 1:
        return "equivalent"
    same = gcd(3, k % order) == gcd(3, kp % order)
    if token in ("SU2", "Sp1"):
        if locality == "integral":
            return "equivalent" if same else "not-equivalent"
        return "equivalent" if same else "out-of-scope"
    if locality == "integral" or (token == "SU3" and locality == 2):
        return "out-of-scope"
    return "equivalent" if same else "not-equivalent"


def su5_verdict(k: int, kp: int) -> str:
    return "equivalent-locally" if gcd(120, k) == gcd(120, kp) else "undecided"


def twist(l: int) -> int:
    r = l % 12
    return min(r, 12 - r)


def vp(m: int, p: int) -> int:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e
