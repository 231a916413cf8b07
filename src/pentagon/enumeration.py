"""Exhaustive search for involutive pentagon solutions on small carriers.

One backtracking search interleaves the pentagon checks with the
assignment of entries.  The search runs on raw tables, so nothing about
the classification theory is assumed; the theory becomes a checkable
output.  The naive route (every involution of the n^2 pair points,
filtered) lives with the test oracles.
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
    relabel,
)
from .analysis import classify, find_isomorphism


@dataclass(frozen=True)
class EnumerationReport:
    size: int
    raw_count: int
    class_count: int
    representatives: tuple[SolutionTable, ...]
    class_triples: tuple[tuple[int, int, int], ...]  # one per representative
    elapsed: float


# ---------------------------------------------------------------------------
# pruned backtracking
#
# Entries are assigned in lexicographic (i, j) order and values tried in
# lexicographic (k, l) order; unassigned cells hold None, and writing
# s(p) = q immediately writes s(q) = p.  After every assignment the
# pentagon chase of core runs on the partial table, and a failing triple
# backtracks.

_CHECK_INTERVAL = 1024


class _Deadline:
    """Absolute point on the monotonic clock; shared across worker processes."""

    def __init__(self, at: float | None):
        self.at = at
        self.ticks = 0

    @classmethod
    def after_ms(cls, budget_ms) -> "_Deadline":
        if budget_ms is None:
            return cls(None)
        return cls(time.monotonic() + budget_ms / 1000.0)

    def expired(self) -> bool:
        if self.at is None:
            return False
        self.ticks += 1
        if self.ticks % _CHECK_INTERVAL:
            return False
        return time.monotonic() > self.at


def _search(n: int, cells: list, start: int, deadline: _Deadline,
            out: list[tuple], depth: int = -1) -> None:
    """Append every consistent extension of `cells` to `out`.

    An extension stops at a complete table or after `depth` more
    decisions, whichever comes first; a negative depth never stops early.
    """
    m = n * n
    p = start
    while p < m and cells[p] is not None:
        p += 1
    if p == m or depth == 0:
        out.append(tuple(cells))
        return
    for q in range(p, m):
        if q != p and cells[q] is not None:
            continue
        if deadline.expired():
            raise BudgetError("enumeration budget exceeded")
        cells[p] = divmod(q, n)
        cells[q] = divmod(p, n)
        if chase_pentagon(cells, n) is None:
            _search(n, cells, p + 1, deadline, out, depth - 1)
        cells[p] = None
        cells[q] = None


def _run_prefix(args) -> list[tuple]:
    n, prefix, deadline_at = args
    out: list[tuple] = []
    _search(n, list(prefix), 0, _Deadline(deadline_at), out)
    return out


def enumerate_pruned(
    n: int, budget_ms: float | None = None, workers: int = 1
) -> list[SolutionTable]:
    """Every involutive solution of size n, sorted; sizes 1..6.

    The search splits into prefixes after two decisions, then finishes
    each one, in this process or on `workers` processes.  Raises
    BudgetError instead of silently truncating when the time budget runs
    out, splitting included.  The output is independent of the worker
    count.
    """
    if not 1 <= n <= 6:
        raise ValidationError("pruned enumeration is limited to sizes 1..6")
    deadline = _Deadline.after_ms(budget_ms)
    prefixes: list[tuple] = []
    _search(n, [None] * (n * n), 0, deadline, prefixes, depth=2)
    tables: list[tuple] = []
    if workers <= 1 or len(prefixes) < 2:
        for prefix in prefixes:
            _search(n, list(prefix), 0, deadline, tables)
    else:
        import multiprocessing

        tasks = [(n, prefix, deadline.at) for prefix in prefixes]
        with multiprocessing.Pool(workers) as pool:
            for chunk in pool.imap_unordered(_run_prefix, tasks):
                tables.extend(chunk)
    tables.sort()  # (k, l) pairs sort like their codes k*n + l
    return [SolutionTable(n, t) for t in tables]


# ---------------------------------------------------------------------------
# isomorphism classes


def canonical_form(s: SolutionTable) -> SolutionTable:
    """Lexicographically smallest relabeling of the table."""
    best = None
    for p in permutations(range(s.size)):
        cand = relabel(s, p).entries
        if best is None or cand < best:
            best = cand
    return SolutionTable(s.size, best)


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

    Grouping uses the classification triple for every size and, up to
    size 4, an explicit isomorphism search as a cross-check; the two
    partitions must agree.
    """
    started = time.monotonic()
    tables = enumerate_pruned(n, budget_ms=budget_ms, workers=workers)

    by_triple: dict[tuple[int, int, int], list[SolutionTable]] = {}
    for t in tables:
        c = classify(t)
        by_triple.setdefault((c.x_size, c.a_dim, c.g_dim), []).append(t)

    if n <= 4:
        reps: list[SolutionTable] = []
        groups: list[list[SolutionTable]] = []
        for t in tables:
            for i, r in enumerate(reps):
                if r.size == t.size and find_isomorphism(r, t) is not None:
                    groups[i].append(t)
                    break
            else:
                reps.append(t)
                groups.append([t])
        explicit = {frozenset(g.entries for g in grp) for grp in groups}
        invariant = {
            frozenset(g.entries for g in grp) for grp in by_triple.values()
        }
        if explicit != invariant:
            raise ValidationError(
                "isomorphism search and invariant grouping disagree"
            )

    classes = sorted(
        ((canonical_form(grp[0]), triple) for triple, grp in by_triple.items()),
        key=lambda rt: rt[0].entries,
    )
    return EnumerationReport(
        size=n,
        raw_count=len(tables),
        class_count=len(by_triple),
        representatives=tuple(rep for rep, _ in classes),
        class_triples=tuple(triple for _, triple in classes),
        elapsed=time.monotonic() - started,
    )
