"""Exhaustive search for involutive pentagon solutions on small carriers.

One backtracking search interleaves the pentagon checks with the
assignment of entries, in a symmetry-broken cell order that reaches at
least one table of every isomorphism class; relabelling those tables by
every permutation of the carrier then gives every table.  The search
runs on raw tables, so nothing about the classification theory is
assumed; the theory becomes a checkable output.  The row-major search
without symmetry breaking and the naive route (every involution of the
n^2 pair points, filtered) live with the test oracles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from math import comb

from .core import (
    BudgetError,
    SolutionTable,
    ValidationError,
    chase_pentagon,
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
    nodes: int  # assignments the search tried, independent of the workers
    elapsed: float


@dataclass
class SearchStats:
    """Deterministic counters of one search, whatever the worker count."""

    nodes: int = 0  # assignments tried, the split included


# ---------------------------------------------------------------------------
# pruned backtracking
#
# Cells are visited in the least-number order of SEM (Zhang & Zhang,
# IJCAI 1995): shell by shell, (max(i, j), i, j).  Unassigned cells hold
# None, and writing s(p) = q immediately writes s(q) = p.  Let m be the
# largest element mentioned so far by an assigned cell or by the current
# cell's indices; the mentioned elements are always 0..m, the others
# interchangeable, so only values (k, l) with k <= m+1 and
# l <= max(m, k)+1 are tried: every solution has a relabelling that the
# search reaches.  After every assignment the pentagon chase of core runs
# on the partial table, writes the cells it forces (they mention only
# elements <= m) and backtracks on a failing triple; the trail undoes
# both kinds of write.

_CHECK_INTERVAL = 1024


class _Deadline:
    """Absolute point on the monotonic clock; shared across worker processes.

    `ticks` counts the calls to `expired`, one per assignment tried.
    """

    def __init__(self, at: float | None):
        self.at = at
        self.ticks = 0

    @classmethod
    def after_ms(cls, budget_ms) -> "_Deadline":
        if budget_ms is None:
            return cls(None)
        return cls(time.monotonic() + budget_ms / 1000.0)

    def passed(self) -> bool:
        return self.at is not None and time.monotonic() > self.at

    def expired(self) -> bool:
        self.ticks += 1
        return not self.ticks % _CHECK_INTERVAL and self.passed()


def _cell_order(n: int) -> list[int]:
    """Cell indices i * n + j in (max(i, j), i, j) order."""
    return sorted(range(n * n), key=lambda p: (max(divmod(p, n)), p))


def _search(n: int, cells: list, order: list[int], pos: int, m: int,
            trail: list[int], deadline: _Deadline, out: list[tuple],
            depth: int = -1) -> None:
    """Append every consistent extension of `cells` to `out`.

    Cells before `pos` in `order` are assigned and m is the largest
    element they mention.  An extension stops at a complete table or
    after `depth` more decisions, whichever comes first; a negative depth
    never stops early.
    """
    end = len(order)
    while pos < end and cells[order[pos]] is not None:
        pos += 1
    if pos == end or depth == 0:
        out.append(tuple(cells))
        return
    p = order[pos]
    i, j = divmod(p, n)
    m = max(m, i, j)
    for k in range(min(m + 2, n)):
        for l in range(min(max(m, k) + 2, n)):
            q = k * n + l
            if q != p and cells[q] is not None:
                continue
            if deadline.expired():
                raise BudgetError("enumeration budget exceeded")
            mark = len(trail)
            cells[p] = (k, l)
            cells[q] = (i, j)
            trail.append(p)
            if q != p:
                trail.append(q)
            if chase_pentagon(cells, n, trail) is None:
                _search(n, cells, order, pos + 1, max(m, k, l), trail,
                        deadline, out, depth - 1)
            while len(trail) > mark:
                cells[trail.pop()] = None


def _finish(n: int, prefix: tuple, deadline: _Deadline, out: list[tuple]):
    """Every complete table extending a prefix that `_search` emitted."""
    m = max((max(c) for c in prefix if c is not None), default=-1)
    _search(n, list(prefix), _cell_order(n), 0, m, [], deadline, out)


def _run_prefix(args) -> tuple[list[tuple], int]:
    n, prefix, deadline_at = args
    deadline = _Deadline(deadline_at)
    out: list[tuple] = []
    _finish(n, prefix, deadline, out)
    return out, deadline.ticks


def _orbit(n: int, cells: tuple) -> set[tuple]:
    """Every relabelling of one complete table under Sym(n)."""
    return {relabel_cells(cells, p, n) for p in permutations(range(n))}


def _orbits(n: int, tables: list[tuple]) -> list[tuple]:
    """Every relabelling of the tables under Sym(n), sorted, without repeats."""
    seen: set[tuple] = set()
    for t in tables:
        if t not in seen:  # otherwise its whole orbit is in already
            seen |= _orbit(n, t)
    return sorted(seen)  # (k, l) pairs sort like their codes k*n + l


def enumerate_pruned(
    n: int,
    budget_ms: float | None = None,
    workers: int = 1,
    stats: SearchStats | None = None,
) -> list[SolutionTable]:
    """Every involutive solution of size n, sorted; sizes 1..6.

    The symmetry-broken search finds at least one table of every
    isomorphism class; their orbits under Sym(n) give every table.  The
    search splits into prefixes after two decisions, then finishes each
    one, in this process or on `workers` processes.  Raises BudgetError
    instead of silently truncating when the time budget runs out,
    splitting included.  The output, and the node count left in `stats`,
    are independent of the worker count.
    """
    if not 1 <= n <= 6:
        raise ValidationError("pruned enumeration is limited to sizes 1..6")
    deadline = _Deadline.after_ms(budget_ms)
    prefixes: list[tuple] = []
    _search(n, [None] * (n * n), _cell_order(n), 0, -1, [], deadline,
            prefixes, depth=2)
    # the split tries too few assignments for the sampled check to fire
    if deadline.passed():
        raise BudgetError("enumeration budget exceeded")
    tables: list[tuple] = []
    worker_ticks = 0
    if workers <= 1 or len(prefixes) < 2:
        for prefix in prefixes:
            _finish(n, prefix, deadline, tables)
    else:
        import multiprocessing

        tasks = [(n, prefix, deadline.at) for prefix in prefixes]
        with multiprocessing.Pool(min(workers, len(prefixes))) as pool:
            for chunk, ticks in pool.imap_unordered(_run_prefix, tasks):
                tables.extend(chunk)
                worker_ticks += ticks
    if stats is not None:
        stats.nodes = deadline.ticks + worker_ticks
    return [SolutionTable(n, t) for t in _orbits(n, tables)]


# ---------------------------------------------------------------------------
# isomorphism classes
#
# On the fixed carrier 0..n-1 two tables are isomorphic exactly when one
# is a relabelling of the other, so the classes are the Sym(n)-orbits.


def canonical_form(s: SolutionTable) -> SolutionTable:
    """Lexicographically smallest relabeling of the table."""
    return SolutionTable(s.size, min(_orbit(s.size, s.entries)))


def expected_count(n: int) -> int:
    """Number of isomorphism classes on a carrier of size n = 2^k (2m+1)."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    k = (n & -n).bit_length() - 1
    return comb(k + 2, 2)


def count_up_to_iso(
    n: int, budget_ms: float | None = None, workers: int = 1
) -> EnumerationReport:
    """Enumerate, then group into isomorphism classes.

    The classes are the orbits under Sym(n).  The table list is sorted,
    so the first table not yet covered by an orbit is the least of its
    own, its canonical form, and becomes the class representative.
    `classify` runs once per class; two classes with the same triple
    contradict the classification theorem and raise ValidationError.
    """
    started = time.monotonic()
    stats = SearchStats()
    tables = enumerate_pruned(
        n, budget_ms=budget_ms, workers=workers, stats=stats
    )
    covered: set[tuple] = set()
    reps: list[SolutionTable] = []
    triples: list[tuple[int, int, int]] = []
    for t in tables:
        if t.entries in covered:
            continue
        covered |= _orbit(n, t.entries)
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
        raw_count=len(tables),
        class_count=len(reps),
        representatives=tuple(reps),
        class_triples=tuple(triples),
        nodes=stats.nodes,
        elapsed=time.monotonic() - started,
    )
