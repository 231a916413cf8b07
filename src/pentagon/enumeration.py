"""Exhaustive search for involutive pentagon solutions on small carriers.

One backtracking search interleaves the pentagon checks with the
assignment of entries, in a symmetry-broken cell order that reaches at
least one table of every isomorphism class; relabelling those tables by
every permutation of the carrier then gives every table.  It starts from
s(0,0) = (0,0), a fixed point that every class has a table with.  After each
assignment a propagator closes the partial table under the equation:
the first coordinates form an associative table, so the search keeps a
layer F of first coordinates known before their cells are; the half
on second coordinates, which equates one cell with coordinates of two
others, is read both ways.  The search state is two flat lists, F of
first and T of second coordinates, copied at each node, and the whole
search runs in the calling process.  It runs on raw tables, so nothing
about the classification theory is assumed; the theory becomes a
checkable output.  The row-major search without symmetry breaking and
the naive route (every involution of the n^2 pair points, filtered)
live with the test oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from math import comb, inf, isfinite

from .core import (
    BudgetError,
    SolutionTable,
    ValidationError,
    relabel_cells,
)
from .analysis import classify


@dataclass(frozen=True)
class EnumerationReport:
    size: int
    raw_count: int
    class_count: int
    representatives: tuple[SolutionTable, ...]
    class_triples: tuple[tuple[int, int, int], ...]  # one per representative
    nodes: int  # assignments the search tried


# ---------------------------------------------------------------------------
# pruned backtracking
#
# Cells are visited in the least-number order of SEM (Zhang & Zhang,
# IJCAI 1995): shell by shell, (max(i, j), i, j).  The partial table is
# two flat lists, F of first and T of second coordinates, with -1 for
# unknown; cell w is assigned exactly when T[w] >= 0, and writing
# s(p) = q immediately writes s(q) = p.  Let m be the largest element
# mentioned so far by an assigned cell or by the current cell's indices;
# the mentioned elements are always 0..m, the others interchangeable, so
# only values (k, l) with k <= m+1 and l <= max(m, k)+1 are tried: every
# solution has a relabelling that the search reaches.
#
# The search starts from s(0,0) = (0,0) with m = 0 (`_root`).  Every
# class has a table there: the first coordinates form a finite semigroup,
# so some e is idempotent, some power of any element being one.  With
# s(e,e) = (e,f), the equation at (x,y,z) = (e,e,e) has a = u = c = p = e
# and b = d = q = v = f (in `_propagate`'s names), so it reads
# s(f,f) = (f,f); relabelling f to 0 keeps the least-number order, which
# only permutes the elements above m.  Within that order the search fails
# first, as SEM and Mace4 (McCune, 2003) do: the next
# cell is the first unassigned one whose F is known, with at most m + 2
# values, and the first unassigned one only when there is none.
#
# F[w] can be known before s(w) is assigned.  The first half of the
# pentagon equation reads M(M(x,y), z) = M(x, M(y,z)) for the
# first-coordinate table M, so once F knows M(x,y) and M(y,z), it knows
# one side from the other.  The second half reads s(b,d) = (q,v), where
# q and v are the second coordinates of s(x,u) and s(y,z), and is read
# both ways, as SEM's cell-level consequences are: a known q writes the
# first coordinate of s(b,d), which a known v then completes, and a
# known first or second coordinate of s(b,d) completes s(x,u) or s(y,z).
# After every assignment `_propagate` closes the partial table under
# both halves.  Each rule copies values of known facts into cells that
# known facts name, so every fact it writes mentions only elements <= m.
# So a cell whose F is known mentions no new element, taking it out of
# turn keeps the symmetry breaking sound, and it is tried only with that
# first coordinate.  The propagator's scan starts at the row of the assigned
# cell, where most contradictions show, and stops once a full cycle of
# rows has written nothing.  Every rule only adds facts, so the closure,
# and whether it fails, do not depend on the order of the scan, and
# neither does the search tree.
# Each value tried copies its node's two layers, at most 49 cells each,
# so nothing is undone (Schulte, ICLP 1999).  The cell order is sorted
# once per search, and one search runs from `_root` to the last leaf in
# the calling process: splitting it over helper processes was no faster
# at any size up to 7.
# The deadline `at` is a point on the monotonic clock (inf without a
# budget), read before every assignment.


def _cell_order(n: int) -> list[int]:
    """Cell indices i * n + j in (max(i, j), i, j) order."""
    return sorted(range(n * n), key=lambda p: (max(divmod(p, n)), p))


def _root(n: int) -> tuple[list[int], list[int], int]:
    """The closed state the search starts from, as (F, T, m):
    s(0,0) = (0,0), its own partner, and nothing else.  The only triple
    it reads is (0,0,0), which holds, so the closure writes nothing."""
    F, T = [-1] * (n * n), [-1] * (n * n)
    F[0] = T[0] = 0
    return F, T, 0


def _complete(n: int, F: list[int], T: list[int], w: int, l: int) -> bool:
    """Complete the unassigned cell w, whose first coordinate k = F[w] is
    known, as s(w) = (k, l), and its partner as s(k, l) = w; False,
    writing nothing, if the partner already says otherwise."""
    q = F[w] * n + l
    if q != w:
        i, j = divmod(w, n)
        if T[q] >= 0 or 0 <= F[q] != i:
            return False
        F[q], T[q] = i, j
    T[w] = l
    return True


def _propagate(n: int, F: list[int], T: list[int], x: int = 0) -> bool:
    """Close a partial table under the pentagon equation; False if it fails.

    With s(x,y) = (a,b), s(y,z) = (u,v), s(a,z) = (c,d), s(x,u) = (p,q)
    and s(b,d) = (e,f) the equation reads c = p and (e,f) = (q,v).  Once
    F knows a and u, a known c or p is written into the other one, and
    two known ones must agree.  Once c = p and b, d are known, (e,f) =
    (q,v) is read both ways, with e = F[bd] and f = T[bd]: a known q is
    written into F[bd], and a known e completes s(x,u) = (c,e); then a
    known v completes s(b,d) = (e,v), and a known f completes s(y,z) =
    (u,f).  Each cell is completed with its partner by `_complete`, and
    two known values of one fact must agree.

    The scan visits the rows x of the triples cyclically, from row `x`
    (the search passes the row of the cell it just assigned), and stops
    once n rows in a row have written nothing: then every triple has
    been read in the final state.  Each rule only adds facts, and a
    failure is two values for one fact, so the closure, and whether it
    fails, do not depend on where the scan starts.
    """
    clean = 0
    while clean < n:
        clean += 1
        xn = x * n
        for y in range(n):
            a = F[xn + y]
            if a < 0:
                continue
            an, yn = a * n, y * n
            for z in range(n):
                u = F[yn + z]
                if u < 0:
                    continue
                az, xu = an + z, xn + u
                c, p = F[az], F[xu]
                if c != p:
                    if c >= 0 and p >= 0:
                        return False
                    if c < 0:
                        F[az] = p
                    else:
                        F[xu] = c
                    clean = 0
                    continue  # that cell is unassigned
                if c < 0:
                    continue
                b, d = T[xn + y], T[az]
                if b < 0 or d < 0:
                    continue
                bd, yz = b * n + d, yn + z
                e, q = F[bd], T[xu]
                if q < 0:
                    if e < 0:
                        continue
                    if not _complete(n, F, T, xu, e):
                        return False
                    clean = 0
                elif e < 0:
                    F[bd] = e = q
                    clean = 0
                elif e != q:
                    return False
                v, f = T[yz], T[bd]
                if v == f:
                    continue  # both unknown, or they agree
                if v < 0:
                    if not _complete(n, F, T, yz, f):
                        return False
                elif f < 0:
                    if not _complete(n, F, T, bd, v):
                        return False
                else:
                    return False
                clean = 0
        x = (x + 1) % n
    return True


def _search(n: int, F: list[int], T: list[int], order: list[int], pos: int,
            m: int, at: float, out: list) -> int:
    """Append every complete consistent extension of (F, T) to `out`;
    return the assignments tried, its own and its children's.

    Cells before `pos` in `order` are assigned, m is the largest element
    the assigned cells mention, and F and T are closed under `_propagate`.
    The cell tried is the first unassigned one from `pos` on whose F is
    known, else the first unassigned one, so a child resumes at `pos`.
    Each value tried writes a copy of the two layers, so a node never
    changes its parent's.  Raises BudgetError at the first assignment
    after the deadline `at`.
    """
    end = len(order)
    while pos < end and T[order[pos]] >= 0:
        pos += 1
    if pos == end:
        out.append(tuple(zip(F, T)))
        return 0
    p = order[pos]
    if F[p] < 0:  # fail first: the next cell whose F is known, if any
        p = next((c for c in map(order.__getitem__, range(pos + 1, end))
                  if F[c] >= 0 > T[c]), p)
    i, j = divmod(p, n)
    m = max(m, i, j)
    first = F[p]
    nodes = 0
    for k in range(min(m + 2, n)) if first < 0 else (first,):
        for l in range(min(max(m, k) + 2, n)):
            q = k * n + l
            if q != p and T[q] >= 0 or 0 <= F[q] != i:
                continue
            if time.monotonic() > at:
                raise BudgetError("enumeration budget exceeded")
            nodes += 1
            F2, T2 = F[:], T[:]
            F2[p], T2[p] = k, l
            F2[q], T2[q] = i, j
            if _propagate(n, F2, T2, i):
                nodes += _search(n, F2, T2, order, pos, max(m, k, l), at, out)
    return nodes


def _orbit(n: int, cells: tuple) -> set[tuple]:
    """Every relabelling of one complete table under Sym(n)."""
    return {relabel_cells(cells, p, n) for p in permutations(range(n))}


def _orbits(n: int, budget_ms: float | None) -> tuple[list[set[tuple]], int]:
    """The Sym(n)-orbits of the tables the search finds, one per class,
    each expanded once, and the assignments the search tried, in one
    search from `_root`; `enumerate_pruned` describes the search."""
    if not 1 <= n <= 7:
        raise ValidationError("pruned enumeration is limited to sizes 1..7")
    if budget_ms is not None and not (isfinite(budget_ms) and budget_ms >= 0):
        raise ValidationError("budget_ms must be a finite number, 0 or more")
    at = inf if budget_ms is None else time.monotonic() + budget_ms / 1000
    F, T, m = _root(n)
    tables: list[tuple] = []
    nodes = _search(n, F, T, _cell_order(n), 0, m, at, tables)
    orbits: list[set[tuple]] = []
    seen: set[tuple] = set()
    for t in tables:
        if t not in seen:  # otherwise its whole orbit is in already
            if time.monotonic() > at:
                raise BudgetError("enumeration budget exceeded")
            orbits.append(_orbit(n, t))
            seen |= orbits[-1]
    return orbits, nodes


def enumerate_pruned(n: int, budget_ms: float | None = None) -> list[SolutionTable]:
    """Every involutive solution of size n, sorted; sizes 1..7.

    The symmetry-broken search, run once in this process, finds at least
    one table of every isomorphism class; their orbits under Sym(n) give
    every table.  The clock is read before every assignment and before
    each orbit is expanded; raises BudgetError instead of silently
    truncating when the time budget runs out.
    """
    orbits, _ = _orbits(n, budget_ms)
    # (k, l) pairs sort like their codes k*n + l
    return [SolutionTable(n, t) for t in sorted(set().union(*orbits))]


# ---------------------------------------------------------------------------
# isomorphism classes
#
# On the fixed carrier 0..n-1 two tables are isomorphic exactly when one
# is a relabelling of the other, so the classes are the Sym(n)-orbits.


# Largest carrier `canonical_form` relabels: its 8! = 40,320 relabelings
# take under a second, while 12! would take hours.
MAX_CANONICAL_SIZE = 8


def canonical_form(s: SolutionTable) -> SolutionTable:
    """Lexicographically smallest relabeling of the table; sizes up to
    `MAX_CANONICAL_SIZE`, since it tries all n! relabelings."""
    if s.size > MAX_CANONICAL_SIZE:
        raise ValidationError(
            f"canonical_form is limited to sizes up to {MAX_CANONICAL_SIZE}"
        )
    return SolutionTable(s.size, min(_orbit(s.size, s.entries)))


def expected_count(n: int) -> int:
    """Number of isomorphism classes on a carrier of size n = 2^k (2m+1)."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    k = (n & -n).bit_length() - 1
    return comb(k + 2, 2)


def count_up_to_iso(n: int, budget_ms: float | None = None) -> EnumerationReport:
    """Enumerate, then group into isomorphism classes.

    The classes are the orbits under Sym(n), each expanded once.  An
    orbit's least table is its canonical form and becomes the class
    representative, in sorted order.  `classify` runs once per class;
    two classes with the same triple contradict the classification
    theorem and raise ValidationError.
    """
    orbits, nodes = _orbits(n, budget_ms)
    reps: list[SolutionTable] = []
    triples: list[tuple[int, int, int]] = []
    for least in sorted(map(min, orbits)):
        t = SolutionTable(n, least)
        c = classify(t)
        triple = (c.x_size, c.a_dim, c.g_dim)
        if triple in triples:
            raise ValidationError(
                f"two isomorphism classes share the triple {triple}"
            )
        reps.append(t)
        triples.append(triple)
    return EnumerationReport(
        size=n,
        raw_count=sum(map(len, orbits)),
        class_count=len(reps),
        representatives=tuple(reps),
        class_triples=tuple(triples),
        nodes=nodes,
    )
