"""Finite quadratic-set tables and the axiom predicates over them.

A carrier is always the index set 0..n-1.  A map s on pairs is stored
densely in row-major (i, j) order.  Axiom predicates are total: they
return False on tables that merely fail an axiom and raise only on
structurally malformed input, so a search may call them on garbage
candidates without try/except.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional, Sequence


class ValidationError(ValueError):
    """A table or argument violates a structural requirement."""


class BudgetError(RuntimeError):
    """A computation stopped (or refused to start) because of a resource budget."""


# ---------------------------------------------------------------------------
# tables


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

    @classmethod
    def from_function(cls, size: int, fn: Callable[[int, int], tuple[int, int]]):
        return cls(size, tuple(fn(i, j) for i in range(size) for j in range(size)))

    def apply(self, i: int, j: int) -> tuple[int, int]:
        return self.entries[i * self.size + j]

    def flat(self) -> list[int]:
        """The same map on pair codes: pair (i, j) is the integer i*size + j."""
        n = self.size
        return [k * n + l for k, l in self.entries]


@dataclass(frozen=True)
class MultTable:
    """First projection of a solution table, ``rows[i][j] == i * j``."""

    size: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.size
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValidationError("multiplication table has wrong shape")
        if any(not 0 <= v < n for r in self.rows for v in r):
            raise ValidationError("multiplication table entry out of range")

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]


@dataclass(frozen=True)
class Bijection:
    """A permutation of 0..n-1 given by its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValidationError("images do not form a permutation")

    @property
    def size(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Bijection":
        return Bijection(inverse_perm(self.images))


def derive_tables(
    s: SolutionTable,
) -> tuple[MultTable, tuple[tuple[int, ...], ...]]:
    """Split s(x, y) = (x*y, theta_x(y)) into its two coordinate tables.

    The second comes back as rows, ``theta[x][y] == theta_x(y)``.  A row
    need not be bijective; degenerate tables give non-bijective ones and
    that is checked where it matters, not here.
    """
    n = s.size
    mul = tuple(
        tuple(s.entries[i * n + j][0] for j in range(n)) for i in range(n)
    )
    theta = tuple(
        tuple(s.entries[i * n + j][1] for j in range(n)) for i in range(n)
    )
    return MultTable(n, mul), theta


# ---------------------------------------------------------------------------
# permutation helpers (tuples of images)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q: the map i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_power(p: Sequence[int], k: int) -> tuple[int, ...]:
    """k-fold composition of p with itself, k >= 0."""
    out = identity_perm(len(p))
    for _ in range(k):
        out = compose_perms(p, out)
    return out


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
# the map s12 acts first.  A triple (x, y, z) is evaluated by chasing the
# tables directly, which keeps every predicate total.  The pentagon check
# of a complete table with at most 256 elements composes whole rows as
# bytes instead (`pentagon_witness`); the triple chase serves larger
# carriers and the oracles' partial tables.


def chase_pentagon(
    cells: Sequence[Optional[tuple[int, int]]], n: int
) -> Optional[tuple[int, int, int]]:
    """First triple (x, y, z) whose assigned cells break s23 s13 s12 = s12 s23.

    ``cells[x * n + y]`` is s(x, y), or None while unassigned.  With
    s(x,y) = (a,b), s(y,z) = (u,v), s(a,z) = (c,d), s(x,u) = (p,q) and
    s(b,d) = (e,f) the equation reads c = p and (e,f) = (q,v); each part
    is compared once the cells it reads are assigned, so a triple found
    on a partial table fails on every completion of it.  The chase only
    reads `cells`.

    `pentagon_witness` checks complete tables of up to 256 elements by
    byte rows and calls this chase above that; the row-major search of
    the test oracles prunes its partial tables with it.  The library's
    own search propagates the two comparisons itself
    (`enumeration._propagate`).
    """
    for x in range(n):
        xn = x * n
        for y in range(n):
            ab = cells[xn + y]
            if ab is None:
                continue
            a, b = ab
            an, bn, yn = a * n, b * n, y * n
            for z in range(n):
                uv = cells[yn + z]
                if uv is None:
                    continue
                u, v = uv
                cd = cells[an + z]
                pq = cells[xn + u]
                if cd is None or pq is None:
                    continue
                c, d = cd
                p, q = pq
                if c != p:
                    return (x, y, z)
                ef = cells[bn + d]
                if ef is None:
                    continue
                e, f = ef
                if e != q or f != v:
                    return (x, y, z)
    return None


# Rows of a complete table whose entries fit in a byte are composed with
# `bytes.translate`; larger carriers go through `chase_pentagon`.
_BYTE_RANGE = 256


def pentagon_witness(s: SolutionTable) -> Optional[tuple[int, int, int]]:
    """First triple (x, y, z) where s23 s13 s12 != s12 s23, or None.

    With M[i] and T[i] the coordinate rows of s (s(i, j) = (M[i][j],
    T[i][j])), the z-rows of `chase_pentagon`'s names are c = M[a],
    p = M[x] o M[y], e = M[b] o T[a], q = T[x] o M[y], f = T[b] o T[a] and
    v = T[y], each one `bytes.translate` at most, so a pair (x, y) holds
    for every z when three pairs of rows are equal.  Only the first pair
    that fails is walked by z.
    """
    n = s.size
    if n > _BYTE_RANGE:
        return chase_pentagon(s.entries, n)
    ent = s.entries
    pad = bytes(256 - n)  # a translation table maps all 256 byte values
    firsts, seconds = bytes([k for k, _ in ent]), bytes([l for _, l in ent])
    M = [firsts[i:i + n] for i in range(0, n * n, n)]
    T = [seconds[i:i + n] for i in range(0, n * n, n)]
    Mpad = [row + pad for row in M]
    Tpad = [row + pad for row in T]
    for x in range(n):
        mx, tx, xn = Mpad[x], Tpad[x], x * n
        for y in range(n):
            a, b = ent[xn + y]
            my, ta = M[y], T[a]
            c, p = M[a], my.translate(mx)
            e, q = ta.translate(Mpad[b]), my.translate(tx)
            f, v = ta.translate(Tpad[b]), T[y]
            if c != p or e != q or f != v:
                for z in range(n):
                    if c[z] != p[z] or e[z] != q[z] or f[z] != v[z]:
                        return (x, y, z)
    return None


def associativity_witness(
    rows: Sequence[Sequence[int]],
) -> Optional[tuple[int, int, int]]:
    """First triple (a, b, c) of a square table where (ab)c != a(bc), or None."""
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab, rb = rows[ra[b]], rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
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
    n = s.size
    ent = s.entries
    for idx in range(n * n):
        k, l = ent[idx]
        if ent[k * n + l] != divmod(idx, n):
            return False
    return True


def check_bijective(s: SolutionTable) -> bool:
    return len(set(s.entries)) == s.size * s.size


def check_commutative(s: SolutionTable) -> bool:
    """Whether s12 s13 = s13 s12 holds on all triples."""
    n = s.size
    ent = s.entries
    for x in range(n):
        xn = x * n
        for y in range(n):
            a, b = ent[xn + y]
            for z in range(n):
                c, d = ent[xn + z]
                p, q = ent[c * n + y]
                if ent[a * n + z] != (p, d) or b != q:
                    return False
    return True


def check_cocommutative(s: SolutionTable) -> bool:
    """Whether s13 s23 = s23 s13 holds on all triples: the same conjugation
    as in `check_reversed_pentagon` makes this s12 s13 = s13 s12 for t."""
    return check_commutative(flip_conjugate(s))


def order_of(s: SolutionTable, cap: int) -> Optional[int]:
    """Smallest m <= cap with s^m = id, None if there is none.

    None covers both non-bijective tables and orders beyond the cap.
    """
    if cap < 1:
        raise ValidationError("cap must be at least 1")
    if not check_bijective(s):
        return None
    m = perm_order(s.flat())
    return m if m <= cap else None


def is_morphism(f: Sequence[int], s: SolutionTable, t: SolutionTable) -> bool:
    """Whether (f x f) s = t (f x f) commutes on every input pair."""
    images = f.images if isinstance(f, Bijection) else tuple(f)
    if len(images) != s.size:
        raise ValidationError("map is not total on the source carrier")
    if any(not 0 <= v < t.size for v in images):
        raise ValidationError("map image out of range for the target carrier")
    n = s.size
    for i in range(n):
        for j in range(n):
            k, l = s.apply(i, j)
            if t.apply(images[i], images[j]) != (images[k], images[l]):
                return False
    return True


# ---------------------------------------------------------------------------
# constructions that stay inside this module


def product_solution(s1: SolutionTable, s2: SolutionTable) -> SolutionTable:
    """Componentwise product on the row-major pairing i1 * n2 + i2."""
    n1, n2 = s1.size, s2.size
    n = n1 * n2

    def fn(i, j):
        i1, i2 = divmod(i, n2)
        j1, j2 = divmod(j, n2)
        k1, l1 = s1.apply(i1, j1)
        k2, l2 = s2.apply(i2, j2)
        return (k1 * n2 + k2, l1 * n2 + l2)

    return SolutionTable.from_function(n, fn)


def flip_conjugate(s: SolutionTable) -> SolutionTable:
    """tau s tau, where tau is the flip (x, y) -> (y, x)."""

    def fn(i, j):
        k, l = s.apply(j, i)
        return (l, k)

    return SolutionTable.from_function(s.size, fn)


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
