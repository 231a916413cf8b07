"""Finite quadratic-set tables and the axiom predicates over them.

A carrier is always the index set 0..n-1.  A map s on pairs is stored
densely in row-major (i, j) order.  Axiom predicates are total: they
return False on tables that merely fail an axiom and raise only on
structurally malformed input, so a search may call them on garbage
candidates without try/except.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import product
from math import lcm
from operator import itemgetter
from typing import Optional, Sequence


class ValidationError(ValueError):
    """A table or argument violates a structural requirement."""


class BudgetError(RuntimeError):
    """A computation stopped (or refused to start) because of a resource budget."""


# ---------------------------------------------------------------------------
# tables

Rows = tuple[tuple[int, ...], ...]  # a square table, rows[i][j]


@dataclass(frozen=True)
class SolutionTable:
    """A total map on pairs: ``entries[i * size + j] == s(i, j)``."""

    size: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise ValidationError("carrier size must be at least 1")
        if len(self.entries) != n * n:
            raise ValidationError(
                f"expected {n * n} entries, got {len(self.entries)}"
            )
        for idx, (k, l) in enumerate(self.entries):
            if not (0 <= k < n and 0 <= l < n):
                i, j = divmod(idx, n)
                raise ValidationError(
                    f"s({i},{j})=({k},{l}) is out of range for size {n}"
                )

    def apply(self, i: int, j: int) -> tuple[int, int]:
        return self.entries[i * self.size + j]

    def flat(self) -> list[int]:
        """The same map on pair codes: pair (i, j) is the integer i*size + j."""
        n = self.size
        return [k * n + l for k, l in self.entries]


@dataclass(frozen=True)
class Bijection:
    """A permutation of 0..n-1 given by its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValidationError("images do not form a permutation")


_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def derive_tables(s: SolutionTable) -> tuple[Rows, Rows]:
    """Split s(x, y) = (x*y, theta_x(y)) into its two coordinate tables.

    Both come back as rows, ``mul[x][y] == x*y`` and ``theta[x][y] ==
    theta_x(y)``, unchecked, since `SolutionTable` checked every entry.  A
    theta row need not be bijective; that is checked where it matters.
    """
    n, e = s.size, s.entries
    # zip of n references to one iterator cuts it into rows of n; not
    # zip(*e), whose n * n live tuple iterators wake the garbage collector
    mul = tuple(zip(*[map(_FIRST, e)] * n))
    theta = tuple(zip(*[map(_SECOND, e)] * n))
    return mul, theta


# ---------------------------------------------------------------------------
# permutation helpers (tuples of images)


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q: the map i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cnt, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            cnt += 1
        lengths.append(cnt)
    return tuple(sorted(lengths))


def perm_order(p: Sequence[int]) -> int:
    return lcm(*cycle_type(p))


# ---------------------------------------------------------------------------
# axiom predicates
#
# Composition is right to left throughout: in a product like s23 s13 s12
# the map s12 acts first.  On a complete table each law compares whole
# coordinate rows composed by `_compose_rows`; a witness walks only the
# first failing pair element by element.  The search propagates the
# equation on its partial tables itself (`enumeration._propagate`).

_BYTE_RANGE = 256  # the longest row composed as bytes


def _compose_rows(rows: Sequence[Sequence[int]]) -> tuple[list, list, list]:
    """Rows of one length n as (rows, tables, composers): rows that compare
    by value, lookup tables, and per row the map r -> r o row from a lookup
    table to a row.  The row length alone decides the format: up to
    `_BYTE_RANGE` elements `bytes`, 256-byte translation tables and
    `bytes.translate`; longer, tuples, the same tuples and `itemgetter`s."""
    n = len(rows[0])
    if n <= _BYTE_RANGE:
        rows = list(map(bytes, rows))
        pad = bytes(256 - n)  # a translation table maps all 256 byte values
        return rows, [row + pad for row in rows], [row.translate for row in rows]
    # n >= 2 here: itemgetter of a single index returns no tuple
    rows = list(map(tuple, rows))
    return rows, rows, [itemgetter(*row) for row in rows]


def _lanes(row) -> int:
    """A row of `_compose_rows` as an int of lanes, 8 bits each for `bytes`,
    16 for tuples (n <= 2^16): xor with v * ones is xor with v in each lane."""
    data = row if isinstance(row, bytes) else array("H", row).tobytes()
    return int.from_bytes(data, sys.byteorder)


def pentagon_witness(s: SolutionTable) -> Optional[tuple[int, int, int]]:
    """First triple (x, y, z) where s23 s13 s12 != s12 s23, or None.

    With s(x,y) = (a,b), s(y,z) = (u,v), s(a,z) = (c,d), s(x,u) = (p,q)
    and s(b,d) = (e,f) the equation reads c = p and (e,f) = (q,v).  With
    M[i] and T[i] the coordinate rows of s (s(i, j) = (M[i][j], T[i][j])),
    the z-rows of these names are c = M[a], p = M[x] o M[y], e = M[b] o
    T[a], q = T[x] o M[y], f = T[b] o T[a] and v = T[y], so a pair (x, y)
    holds for every z when three pairs of rows are equal.  The rows of
    `derive_tables` get their lookup tables and composers from
    `_compose_rows`.  Only the first pair that fails is walked by z.
    """
    n, ent = s.size, s.entries
    (M, Mtab, Mcomp), (T, Ttab, Tcomp) = map(_compose_rows, derive_tables(s))
    for x in range(n):
        mx, tx, xn = Mtab[x], Ttab[x], x * n
        for y in range(n):
            a, b = ent[xn + y]
            my, ta = Mcomp[y], Tcomp[a]
            c, p = M[a], my(mx)
            e, q = ta(Mtab[b]), my(tx)
            f, v = ta(Ttab[b]), T[y]
            if c != p or e != q or f != v:
                for z in range(n):
                    if c[z] != p[z] or e[z] != q[z] or f[z] != v[z]:
                        return (x, y, z)
    return None


def associativity_witness(
    rows: Sequence[Sequence[int]],
) -> Optional[tuple[int, int, int]]:
    """First triple (a, b, c) of a square table where (ab)c != a(bc), or
    None.  Row ab must equal row a after row b; only the first pair (a, b)
    where they differ is walked by c."""
    n = len(rows)
    rows, tabs, comps = _compose_rows(rows)
    for a in range(n):
        ta = tabs[a]
        for b in range(n):
            rab, arb = rows[ta[b]], comps[b](ta)
            if rab != arb:
                for c in range(n):
                    if rab[c] != arb[c]:
                        return (a, b, c)
    return None


def check_pentagon(s: SolutionTable) -> bool:
    return pentagon_witness(s) is None


def check_reversed_pentagon(s: SolutionTable) -> bool:
    """Whether s satisfies t12 t13 t23 = t23 t12 (s playing the role of t).

    Conjugating by (x, y, z) -> (z, y, x) turns s12, s13, s23 into t23,
    t13, t12 for t = tau s tau, so this is the pentagon equation of t.
    """
    return check_pentagon(flip_conjugate(s))


def check_involutive(s: SolutionTable) -> bool:
    """Whether s o s = id, as one composition of s on pair codes."""
    f = s.flat()
    return list(map(f.__getitem__, f)) == list(range(len(f)))


def check_bijective(s: SolutionTable) -> bool:
    return len(set(s.entries)) == s.size * s.size


def check_commutative(s: SolutionTable) -> bool:
    """Whether s12 s13 = s13 s12 holds on all triples.

    With a = xy the two sides send (x, y, z) to ((xz)y, theta_{xz}(y),
    theta_x(z)) and (az, theta_x(y), theta_a(z)), so over all pairs the
    law is theta_a = theta_x and (xy)z = (xz)y: row a of the
    multiplication equals column y after row x."""
    M, T = derive_tables(s)
    cols = _compose_rows(tuple(zip(*M)))[1]
    M, _, Mcomp = _compose_rows(M)
    return all(
        T[a] == T[x] and M[a] == Mcomp[x](cols[y])
        for x, mx in enumerate(M) for y, a in enumerate(mx)
    )


def check_cocommutative(s: SolutionTable) -> bool:
    """Whether s13 s23 = s23 s13 holds on all triples: the same conjugation
    as in `check_reversed_pentagon` makes this s12 s13 = s13 s12 for t."""
    return check_commutative(flip_conjugate(s))


def order_of(s: SolutionTable) -> Optional[int]:
    """Smallest m >= 1 with s^m = id, read off the cycle type of s on pairs;
    None exactly when s is not bijective."""
    if not check_bijective(s):
        return None
    return perm_order(s.flat())


def is_morphism(f: Sequence[int], s: SolutionTable, t: SolutionTable) -> bool:
    """Whether (f x f) s = t (f x f) commutes on every input pair."""
    images = f.images if isinstance(f, Bijection) else tuple(f)
    if len(images) != s.size:
        raise ValidationError("map is not total on the source carrier")
    if any(not 0 <= v < t.size for v in images):
        raise ValidationError("map image out of range for the target carrier")
    m, te = t.size, t.entries
    return all(
        te[a * m + b] == (images[k], images[l])
        for (a, b), (k, l) in zip(product(images, repeat=2), s.entries)
    )


# ---------------------------------------------------------------------------
# constructions that stay inside this module


def product_solution(s1: SolutionTable, s2: SolutionTable) -> SolutionTable:
    """Componentwise product on the row-major pairing i1 * n2 + i2."""
    n1, n2 = s1.size, s2.size
    rows1 = [s1.entries[i:i + n1] for i in range(0, n1 * n1, n1)]
    rows2 = [s2.entries[i:i + n2] for i in range(0, n2 * n2, n2)]
    return SolutionTable(n1 * n2, tuple(
        (k1 * n2 + k2, l1 * n2 + l2)
        for r1 in rows1 for r2 in rows2 for k1, l1 in r1 for k2, l2 in r2
    ))


def flip_conjugate(s: SolutionTable) -> SolutionTable:
    """tau s tau, where tau is the flip (x, y) -> (y, x)."""
    n = s.size
    return SolutionTable(n, tuple(
        (l, k) for i in range(n) for k, l in s.entries[i::n]
    ))


def relabel(s: SolutionTable, perm: Sequence[int]) -> SolutionTable:
    """Transport s along the relabeling i -> perm[i] of the carrier."""
    images = perm.images if isinstance(perm, Bijection) else tuple(perm)
    if sorted(images) != list(range(s.size)):
        raise ValidationError("relabeling is not a permutation of the carrier")
    return SolutionTable(s.size, relabel_cells(s.entries, images, s.size))


def relabel_cells(
    cells: Sequence[tuple[int, int]], images: Sequence[int], n: int
) -> tuple[tuple[int, int], ...]:
    """The entries of `relabel` on a bare row-major cell sequence."""
    out: list = [None] * (n * n)
    for idx, (k, l) in enumerate(cells):
        i, j = divmod(idx, n)
        out[images[i] * n + images[j]] = (images[k], images[l])
    return tuple(out)
