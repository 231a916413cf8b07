"""Retraction, classification invariants, and isomorphism testing.

Operations whose statements only make sense for involutive solutions
verify that hypothesis up front and raise on anything else.  The proof
is a `decompose` certificate, an isomorphism onto `canonical_solution(x,
a, g)` checked on every pair in n^2 work; a table without one takes the
n^3 axiom checks, whose messages name the law that fails.  An involutive
solution without one contradicts the classification theorem, and raises
too.  `classify` is the certificate's shape; `retract` reads its classes
off its a-coordinates.  Rows are the `derive_tables` rows, composed and
packed by `core` in its one row format; no caller table is re-checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import (
    Bijection,
    BudgetError,
    SolutionTable,
    ValidationError,
    _compose_rows,
    _lanes,
    check_involutive,
    check_pentagon,
    cycle_type,
    derive_tables,
    is_morphism,
)
from .constructors import Decomposition


@dataclass(frozen=True)
class RetractResult:
    """Quotient by the relation 'same theta map', classes numbered by least member."""

    quotient: SolutionTable
    class_of: tuple[int, ...]
    class_sizes: tuple[int, ...]


def _span_coordinates(gens, identity, mul, limit: int) -> Optional[dict]:
    """Coordinates of the span of `gens` in a greedy F2-basis under `mul`,
    from `identity` at 0: each generator outside the span so far doubles
    it, its products with the span taking the next bit.  None when a
    product is None or lands in the span, so the span is no group F2^k, or
    when the span would outgrow `limit`."""
    coord = {identity: 0}
    for v in gens:
        if v not in coord:
            bit = len(coord)  # a power of two: the span doubled each time
            if 2 * bit > limit:
                return None
            new = {mul(u, v): c | bit for u, c in coord.items()}
            if None in new or len(new) != bit or not coord.keys().isdisjoint(new):
                return None
            coord.update(new)
    return coord


def decompose(s: SolutionTable) -> Optional[tuple[Decomposition, Bijection]]:
    """A shape (x, a, g) and an isomorphism f from s onto
    `canonical_solution(x, a, g)`, or None when this reading finds none.

    Nothing about s is assumed.  With M and T the `derive_tables` rows, f
    is read as follows, and None returned at the first inconsistency:
    - X is the idempotents e whose row T[e] is the identity, e0 the least;
    - the x-coordinate of p is the place in X of M[w][w], w = T[p][p];
    - the g-coordinate of p is that of M[e0][p] in a greedy F2-basis of
      row M[e0] under M;
    - the a-coordinate of p is that of the least element with row T[p] in
      a greedy F2-basis of such elements, u times v the least with row
      T[u] o T[v]; None when there is none, as the T rows of s then are
      not closed under composition, which those of a solution are.
    f counts only once it is checked on every pair.  canonical(x, a, g)
    sends (P, Q) to (P ^ (Q & GM), Q ^ (P & AM)), with GM and AM the
    masks of the g and the a bits, so row p holds when f o M[p] and
    f o T[p] equal those two rows in Q = f(q).  canonical(x, a, g) is an
    involutive solution, so a table with a certificate is one; by the
    paper's theorem every involutive solution has one.
    """
    n = s.size
    M, T = derive_tables(s)
    identity = tuple(range(n))
    xs = [e for e in range(n) if M[e][e] == e and T[e] == identity]
    if not xs:
        return None
    place = dict(zip(xs, range(len(xs))))
    x_of = [place.get(M[row[p]][row[p]]) for p, row in enumerate(T)]
    if None in x_of:
        return None
    e0 = xs[0]
    g_of = _span_coordinates(M[e0], e0, lambda u, v: M[u][v], n)
    if g_of is None:
        return None
    T, Ttab, Tcomp = _compose_rows(T)
    least: dict = {}  # T row -> the least element with that row
    theta = [least.setdefault(row, p) for p, row in enumerate(T)]
    mul = lambda u, v: least.get(Tcomp[v](Ttab[u]))  # T[u] o T[v]
    a_of = _span_coordinates(theta, theta[e0], mul, n)
    if a_of is None:
        return None
    shape = Decomposition(
        len(xs), len(a_of).bit_length() - 1, len(g_of).bit_length() - 1
    )
    if shape.size != n:
        return None
    ad, gd = shape.a_dim, shape.g_dim
    f = [(x << ad | a_of[t]) << gd | g_of[g] for x, t, g in zip(x_of, theta, M[e0])]
    if len(set(f)) != n:  # every coordinate is in range, so f is onto 0..n-1
        return None

    gm, am = (1 << gd) - 1, ((1 << ad) - 1) << gd
    Mcomp = _compose_rows(M)[2]
    rows, (ftab, _, _), _ = _compose_rows([f, [v & gm for v in f], [1] * n])
    fi, fg, ones = map(_lanes, rows)
    for mc, tc, fp in zip(Mcomp, Tcomp, f):
        if (_lanes(mc(ftab)) != fg ^ fp * ones
                or _lanes(tc(ftab)) != fi ^ (fp & am) * ones):
            return None
    return shape, Bijection(tuple(f))


def _certificate(s: SolutionTable, op: str) -> tuple[Decomposition, Bijection]:
    """The `decompose` certificate of s, or ValidationError naming what
    `op` found instead: the law that s fails, or an involutive solution
    without a certificate, which the classification theorem rules out."""
    certificate = decompose(s)
    if certificate is not None:
        return certificate
    if not check_involutive(s):
        raise ValidationError(f"{op} requires an involutive table")
    if not check_pentagon(s):
        raise ValidationError(f"{op} requires a pentagon solution")
    raise ValidationError(
        f"{op}: an involutive solution without a certificate "
        "contradicts the classification theorem"
    )


def retract(s: SolutionTable) -> RetractResult:
    """Quotient solution on the classes of elements sharing a theta map,
    read off the certificate f: s = canonical(x, a, g).  There theta_p is
    xor with p's a-coordinate alpha, so p's class is alpha, and the
    quotient sends (alpha, beta) to (alpha, alpha ^ beta) on A alone."""
    shape, f = _certificate(s, "retract")
    k = 1 << shape.a_dim
    # a-coordinate -> class, numbered in the order of the classes' least members
    index: dict[int, int] = {}
    class_of = tuple(
        index.setdefault(p >> shape.g_dim & k - 1, len(index)) for p in f.images
    )
    entries = tuple((c, index[u ^ v]) for c, u in enumerate(index) for v in index)
    return RetractResult(SolutionTable(k, entries), class_of, (s.size // k,) * k)


def retract_tower(s: SolutionTable) -> list[int]:
    """Sizes of iterated retracts, ending when the size repeats: the
    retract of canonical(x, a, g) is canonical(1, a, 0), its own retract."""
    n, k = s.size, 1 << _certificate(s, "retract")[0].a_dim
    return [n, k] if k == n else [n, k, k]


def classify(s: SolutionTable) -> Decomposition:
    """The shape X x A x G of an involutive solution, sigma left out: that
    of its `decompose` certificate.  Raises ValidationError on a table
    without one."""
    return _certificate(s, "classify")[0]


def is_isomorphic_invariant(s: SolutionTable, t: SolutionTable) -> bool:
    """Whether the `classify` shapes agree: isomorphism by the theorem.

    It gives no map; `isomorphic` uses `find_isomorphism`, which does.
    """
    return classify(s) == classify(t)


def _element_signatures(s: SolutionTable) -> list[tuple]:
    mul, th = derive_tables(s)
    n = s.size
    sigs = []
    shapes: dict[tuple, tuple] = {}  # a solution has at most |A| theta rows
    for x in range(n):
        row = th[x]
        if row not in shapes:
            if len(set(row)) == n:  # n values: a permutation
                shapes[row] = ("perm", cycle_type(row))
            else:  # fibre sizes, counted in one pass
                shapes[row] = ("map", tuple(sorted(Counter(row).values())))
        sigs.append((mul[x][x] == x, shapes[row]))
    return sigs


# Pair visits find_isomorphism may spend before it raises BudgetError.  A
# decision's closure visits at most 1 + 2 + ... + n pairs, 36 at n = 8, and
# up to size 8 the search has at most 109,600 decisions (the injective
# sequences into 8 elements): 36 * 109,600 < 2**22, so none runs out.
_ISO_WORK_BUDGET = 1 << 22


def find_isomorphism(s: SolutionTable, t: SolutionTable) -> Optional[Bijection]:
    """Search for a bijection f with (f x f) s = t (f x f).

    Elements are matched by signature (idempotent or not, shape of theta_x)
    before any search.  Backtracking, with an explicit stack, maps the first
    unmapped element to each free image in turn; a worklist checks every
    newly mapped u once against each element mapped up to and including it,
    as (u, y) and (y, u), and forces the images of both output coordinates.
    Raises BudgetError past `_ISO_WORK_BUDGET` pair visits, which no input
    of size 8 or less reaches.
    """
    if s.size != t.size:
        raise ValidationError("size mismatch")
    sig_s, sig_t = _element_signatures(s), _element_signatures(t)
    if sorted(sig_s) != sorted(sig_t):
        return None
    n = s.size
    se, te = s.entries, t.entries
    fwd, bwd = [-1] * n, [-1] * n
    order: list[int] = []  # mapped elements in mapping order: the undo trail
    decisions: list[tuple[int, int, int]] = []  # (x, image, trail length before x)
    work = 0
    x = y = base = 0
    while x < n:
        if y == n:  # every image of x failed: revisit the previous decision
            if not decisions:
                return None
            x, y, base = decisions.pop()
        elif bwd[y] >= 0 or sig_s[x] != sig_t[y]:
            y += 1
            continue
        else:
            fwd[x] = y
            bwd[y] = x
            order.append(x)
            i, ok = base, True
            while ok and i < len(order):
                u = order[i]
                fu = fwd[u]
                i += 1
                work += i
                if work > _ISO_WORK_BUDGET:
                    raise BudgetError("isomorphism search exceeded its work bound")
                for v in order[:i]:
                    fv = fwd[v]
                    (k, l), (k2, l2) = se[u * n + v], te[fu * n + fv]
                    (p, q), (p2, q2) = se[v * n + u], te[fv * n + fu]
                    for src, dst in ((k, k2), (l, l2), (p, p2), (q, q2)):
                        cur = fwd[src]
                        if cur == dst:
                            continue
                        if cur >= 0 or bwd[dst] >= 0 or sig_s[src] != sig_t[dst]:
                            ok = False
                            break
                        fwd[src] = dst
                        bwd[dst] = src
                        order.append(src)
                    if not ok:
                        break
            if ok:
                decisions.append((x, y, base))
                base = len(order)
                x = next((u for u in range(x + 1, n) if fwd[u] < 0), n)
                y = 0
                continue
        # undo x -> y and what it forced, then try x's next image
        for u in order[base:]:
            bwd[fwd[u]] = -1
            fwd[u] = -1
        del order[base:]
        y += 1
    f = Bijection(tuple(fwd))
    if not is_morphism(f, s, t):
        raise ValidationError("internal error: candidate map is not a morphism")
    return f
