"""Curated homotopy group tables for spheres and compact Lie groups.

Every value is a citation, not a computation: the table is loaded from a
data file (``key | degree | group | source``) whose low degrees three
classical rules fill and check on load.  A missing entry raises
UnknownValueError: lookups never extrapolate beyond the loaded records.

Family-parameterized records such as ``Sp(n):n>=2 | 4 | Z_2 | ...``
carry an explicit validity range on the rank parameter.  The classical
coincidences SU(2) = Sp(1) = S^3, Spin(5) = Sp(2) and Spin(6) = SU(4)
resolve to a single canonical key each (S3, Sp2, SU4), so the data is
maintained once; a row keyed by an alias is refused, and so is a family
row whose bound reaches an alias rank (family rows start at SU(3), Sp(2)
and Spin(7)).
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from functools import lru_cache
from math import gcd

from .abelian import TRIVIAL, Z, AbGroup, make_group, parse_group, vp
from .errors import UnknownValueError

__all__ = [
    "LieGroupId",
    "PiTable",
    "TableRecord",
    "default_table",
    "pi6",
    "pi6_moore",
    "PI6_MOORE_SOURCE",
    "RULES",
]

ENV_TABLE_PATH = "BUNDLEGAUGE_TABLES"

_FAMILIES = ("SU", "Sp", "Spin", "G2", "F4", "E6", "E7", "E8")
_MIN_RANK = {"SU": 2, "Sp": 1, "Spin": 5}
_LIE_RULES = ("connected", "simply connected", "pi_2 of a Lie group vanishes")
_MAX_SPHERE = 256  # the connectivity rule fills each degree below n for S<n>

# The one grammar of table keys and group tokens: a group with a rank,
# SU4 or SU(4) (groups 1-3); a family key, SU(n):n>=5 (groups 1 and 4);
# an exceptional group (5); a sphere, S3 (6).
_KEY = re.compile(
    r"(SU|Sp|Spin)(?:(\d+)|\((\d+)\)|\(n\):n>=(\d+))|(G2|F4|E6|E7|E8)|S(\d+)"
)


class LieGroupId(namedtuple("LieGroupId", "family n")):
    """A simply connected simple compact Lie group: family plus rank.

    The exceptional families carry no rank parameter.  SU(2) and Sp(1)
    are distinct identifiers that report as isomorphic.  As a tuple it
    sorts by (family, n), the order expressions use.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int | None = None) -> LieGroupId:
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family in _MIN_RANK:
            if n is None:
                raise ValueError(f"{family} requires a rank parameter")
            if n < _MIN_RANK[family]:
                raise ValueError(
                    f"{family}({n}) out of range: need n >= {_MIN_RANK[family]}"
                )
        elif n is not None:
            raise ValueError(f"{family} takes no rank parameter")
        return super().__new__(cls, family, n)

    @classmethod
    def parse(cls, token: str) -> "LieGroupId":
        """Accepts compact tokens (SU4, Sp2, Spin8, E7) and SU(4) forms."""
        m = _KEY.fullmatch(token.strip())
        if m is None or m[4] or m[6]:
            raise ValueError(f"cannot parse Lie group token {token!r}")
        return _group_of(m)

    def canonical(self) -> "LieGroupId":
        """Alias resolution: Sp(1)->SU(2), Spin(5)->Sp(2), Spin(6)->SU(4)."""
        if self.family == "Sp" and self.n == 1:
            return LieGroupId("SU", 2)
        if self.family == "Spin" and self.n == 5:
            return LieGroupId("Sp", 2)
        if self.family == "Spin" and self.n == 6:
            return LieGroupId("SU", 4)
        return self

    def token(self) -> str:
        if self.n is None:
            return self.family
        return f"{self.family}{self.n}"

    def __str__(self) -> str:
        if self.n is None:
            return self.family
        return f"{self.family}({self.n})"


class TableRecord(namedtuple("TableRecord", "family min_n key degree group source")):
    """One data-file line: a space key, a degree, a group and its source.

    family and min_n (the validity bound) are None for exact keys; key is
    the key text, e.g. "S3" or "SU4".
    """

    __slots__ = ()

    def line(self) -> str:
        return f"{self.key} | {self.degree} | {self.group.render()} | {self.source}"


def _lie_key(g: LieGroupId) -> str:
    """The key of g's exact rows: S3 for SU(2) = Sp(1) = S^3, else its token."""
    c = g.canonical()
    return "S3" if c == ("SU", 2) else c.token()


def _group_of(m: re.Match) -> LieGroupId:
    """The group that a key match names with a rank or as exceptional."""
    return LieGroupId(m[5]) if m[5] else LieGroupId(m[1], int(m[2] or m[3]))


@lru_cache(maxsize=None)
def _first_own_rank(family: str) -> int:
    """The least rank of a family whose rows are its own, not an alias's."""
    n = _MIN_RANK[family]
    while _lie_key(LieGroupId(family, n)) != f"{family}{n}":
        n += 1
    return n


def _parse_record(line: str) -> TableRecord:
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 4:
        raise ValueError("malformed: need key | degree | group | source")
    key, degree_s, group_s, source = fields
    if not degree_s.isdecimal():
        raise ValueError(f"degree {degree_s!r} is not a nonnegative integer")
    degree = int(degree_s)
    group = parse_group(group_s)
    if not group.is_integral:
        raise ValueError("table entries must be integral")
    m = _KEY.fullmatch(key)
    if m is None:
        raise ValueError(f"unrecognized table key {key!r}")
    if m[4]:
        bound, first = int(m[4]), _first_own_rank(m[1])
        if bound < first:
            raise ValueError(
                f"family key {key} covers alias ranks: start it at n>={first}"
            )
        return TableRecord(m[1], bound, key, degree, group, source)
    # A key is refused unless a lookup reads it as written.
    if m[6] and int(m[6]) < 1:
        raise ValueError(f"sphere key {key} is never read: spheres start at S1")
    if m[6] and int(m[6]) > _MAX_SPHERE:
        raise ValueError(f"sphere key {key} is too large: spheres stop at S{_MAX_SPHERE}")
    read_as = f"S{int(m[6])}" if m[6] else _lie_key(_group_of(m))
    if read_as != key:
        raise ValueError(f"table key {key} is an alias: key its rows {read_as}")
    return TableRecord(None, None, key, degree, group, source)


def _rule_records(heads):
    """Each head's rule records: S^n is (n-1)-connected with pi_n(S^n) = Z
    (Hurewicz), and a simply connected Lie group has pi_0..pi_2 = 0."""
    for h in heads:
        if h.key[0] == "S" and h.key[1:].isdecimal():
            n = int(h.key[1:])
            for i in range(n):
                yield TableRecord(None, None, h.key, i, TRIVIAL, "connectivity")
            yield TableRecord(None, None, h.key, n, Z, "Hurewicz")
        else:
            for i, source in enumerate(_LIE_RULES):
                yield TableRecord(h.family, h.min_n, h.key, i, TRIVIAL, source)


class PiTable:
    """Immutable lookup table keyed by (space, degree).

    Exact records win over family records, and a family record applies
    from its bound up.  Each key or family has one record per degree.
    """

    def __init__(self, records: list[TableRecord]):
        self._records = tuple(records)
        self._rows: dict[tuple[str, int], TableRecord] = {}
        heads: dict[str, TableRecord] = {}  # each key's row of least bound
        for rec in records:
            slot = (rec.family or rec.key, rec.degree)
            if slot in self._rows:
                first = self._rows[slot].line()
                raise ValueError(f"duplicate table entry: {first!r} and {rec.line()!r}")
            self._rows[slot] = rec
            head = heads.setdefault(slot[0], rec)
            if rec.min_n is not None and rec.min_n < head.min_n:
                heads[slot[0]] = rec
        # A rule fills an empty slot; a row in its slot must agree with it.
        for rule in _rule_records(heads.values()):
            rec = self._rows.setdefault((rule.family or rule.key, rule.degree), rule)
            if rec.group != rule.group:
                raise ValueError(
                    f"table line {rec.line()!r} contradicts the rule {rule.source!r}"
                )

    @property
    def records(self) -> tuple[TableRecord, ...]:
        return self._records

    def dump_lines(self) -> list[str]:
        return [rec.line() for rec in self._records]

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PiTable":
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_text(f.read())
        except ValueError as exc:
            raise ValueError(f"{os.fspath(path)}: {exc}") from exc

    @classmethod
    def from_text(cls, text: str) -> "PiTable":
        records = []
        for number, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                records.append(_parse_record(line))
            except ValueError as exc:
                raise ValueError(f"table line {number} {line!r}: {exc}") from exc
        return cls(records)

    def sphere_record(self, n: int, i: int) -> TableRecord:
        if type(n) is not int or type(i) is not int or n < 1 or i < 0:
            raise ValueError("sphere lookup needs n >= 1, i >= 0, both ints")
        rec = self._rows.get((f"S{n}", i))
        if rec is None:
            raise UnknownValueError(f"no table entry for pi_{i}(S^{n})")
        return rec

    def lie_record(self, g: LieGroupId, i: int) -> TableRecord:
        if type(i) is not int or i < 0:
            raise ValueError("degree must be nonnegative and an int")
        rec = self._rows.get((_lie_key(g), i))
        if rec is None:
            # For an exceptional group this is the exact slot just
            # missed, so a row found here is a family row with a bound.
            c = g.canonical()
            rec = self._rows.get((c.family, i))
            if rec is None or c.n < rec.min_n:
                raise UnknownValueError(f"no table entry for pi_{i}({g})")
        return rec


@lru_cache(maxsize=None)
def _cached_table(override: str | None) -> PiTable:
    if override:
        return PiTable.load(override)
    # The loader reads package data from a directory and from a zip alike.
    data = os.path.join(os.path.dirname(__file__), "data", "homotopy_groups.txt")
    return PiTable.from_text(__spec__.loader.get_data(data).decode("utf-8"))


def default_table() -> PiTable:
    """The packaged table (zip imports too), or the file that a nonempty
    ``BUNDLEGAUGE_TABLES`` names.  The variable is read on every call;
    each distinct value's file is parsed once per process.  The memos
    behind pi6 and gauge.pi_of_expr key on the table returned here, so
    a new value takes effect at once."""
    return _cached_table(os.environ.get(ENV_TABLE_PATH) or None)


def pi6(g: LieGroupId) -> AbGroup:
    """pi_6 of a simply connected simple compact Lie group.

    Nonzero only for SU(2) = Sp(1) (Z_12), SU(3) (Z_6) and G2 (Z_3);
    this predicate gates every bundle classification below.  A repeated
    (group, table) pair is answered from a memo of 256 entries; the
    table is read through default_table() on every call, and a refusal
    is raised again each time, never stored.
    """
    # A tuple equal to a memoized group would hit the memo, so refuse it first.
    if type(g) is not LieGroupId:
        raise ValueError(f"pi_6 needs a LieGroupId, got {g!r}")
    return _pi6(g, default_table())


# The cap bounds memory, as LieGroupId.parse accepts any rank.
@lru_cache(maxsize=256)
def _pi6(g: LieGroupId, table: PiTable) -> AbGroup:
    return table.lie_record(g, 6).group


def pi6_moore(m: int) -> AbGroup:
    """pi_6 of the Moore space P^4(m), by Sasao's closed formula.

    The case split is on the 2-adic valuation of m; unit factors are
    dropped during canonicalization.

    >>> print(pi6_moore(5))
    Z_5
    >>> print(pi6_moore(2))
    Z_2 + Z_4
    >>> print(pi6_moore(8))
    Z_2 + Z_4 + Z_8
    """
    if m < 2:
        raise ValueError("Moore space parameter must be >= 2")
    g12 = gcd(m, 12)
    v2 = vp(m, 2)
    if v2 == 0:
        orders = [g12, m]
    elif v2 <= 2:
        orders = [g12 // 2, 2 * m, 2]
    else:
        orders = [g12, m, 2]
    return make_group(0, [d for d in orders if d > 1])


PI6_MOORE_SOURCE = "Sasao (1965)"

# Each decision rule that an answer reports: key -> (name, citations).
RULES = {
    "classify": ("bundle classification over the total space", ()),
    "degree-3": ("degree-3 homology", ()),
    "s7-identification": ("S^7 identification", ()),
    "james-whitehead": ("James-Whitehead criterion", ("James-Whitehead (1954)",)),
    "crowley-escher": ("Crowley-Escher criterion", ("Crowley-Escher (2003)",)),
    "homology": ("closed-form cellular homology", ()),
    "suspension": ("integral suspension splitting", ()),
    "suspension-plocal": ("p-local suspension splitting", ()),
    "unpointed-m0": ("unpointed splitting over a torsion-free base", ()),
    "pointed-m0": ("pointed splitting over a torsion-free base", ()),
    "plocal-trivial": ("p-local splitting for p prime to m, trivial class", ()),
    "plocal-looped": ("p-local splitting of the looped gauge group", ()),
    "plocal-pointed": ("p-local pointed splitting, trivial class", ()),
    "plocal-pointed-looped": ("p-local splitting of the looped pointed gauge group", ()),
    "components-m0": ("component table over a torsion-free base", ()),
    "components-plocal": ("p-local component table", ()),
    "s7-trivial": ("gauge group of the unique bundle over S^7", ()),
    "s7-gcd": ("gcd rule for gauge groups over S^7", ("Lang (1973)", "Theriault (2010)")),
    "su5-gcd": ("gcd-120 rule for SU(5) over torsion-free bases", ("Theriault (2015)",)),
    "snf": ("Smith normal form on the cellular chain complex", ()),
}
