"""Retraction, classification invariants, and isomorphism testing.

Operations whose statements only make sense for involutive solutions
verify that hypothesis up front and raise on anything else.  The proof
is a `decompose` certificate, an isomorphism onto `canonical_solution(x,
a, g)` checked on every pair in n^2 work; a table without one takes the
n^3 axiom checks, whose messages name the law that fails.  An involutive
solution without a certificate would contradict the classification
theorem, and raises too.  `classify` is the certificate's shape.  The
quotient constructions additionally re-check their own well-definedness,
which is cheap at these sizes and catches table bugs immediately.
Everything here reads `derive_tables` rows; no `MultTable` is built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .core import (
    Bijection,
    BudgetError,
    SolutionTable,
    ValidationError,
    _BYTE_RANGE,
    _compose_rows,
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
    product lands in the span, so the span is no group F2^k, or when the
    span would outgrow `limit`."""
    coord = {identity: 0}
    for v in gens:
        if v not in coord:
            bit = len(coord)  # a power of two: the span doubled each time
            if 2 * bit > limit:
                return None
            new = {mul(u, v): c | bit for u, c in coord.items()}
            if len(new) != bit or not coord.keys().isdisjoint(new):
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
    - the a-coordinate of p is that of T[p] in a greedy F2-basis of the
      T rows under composition.
    f counts only once it is checked on every pair.  canonical(x, a, g)
    sends (P, Q) to (P ^ (Q & GM), Q ^ (P & AM)), with GM and AM the
    masks of the g and the a bits, so row p holds when f o M[p] and
    f o T[p] equal those two rows in Q = f(q).  canonical(x, a, g) is an
    involutive solution, so a table with a certificate is one; by the
    paper's theorem every involutive solution has one.
    """
    n = s.size
    M, T = derive_tables(s)
    T, _, Tcomp = _compose_rows(T)
    # f o row is compared as an int of n lanes, one per element, where
    # xor with v in every lane is xor with v * ones
    if n <= _BYTE_RANGE:  # bytes rows and byte lanes
        identity, pad = bytes(range(n)), bytes(_BYTE_RANGE - n)
        compose = lambda u, v: v.translate(u + pad)  # u after v
        table = lambda r: bytes(r) + pad
        lanes = lambda r: int.from_bytes(bytes(r), "little")
    else:  # tuple rows, as in _compose_rows, and lanes of an array type
        identity = tuple(range(n))
        code = "H" if n <= 1 << 16 else "Q"
        compose = lambda u, v: tuple(map(u.__getitem__, v))
        table = tuple
        lanes = lambda r: int.from_bytes(array(code, r).tobytes(), "little")

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
    a_of = _span_coordinates(T, identity, compose, n)
    if a_of is None:
        return None
    shape = Decomposition(
        len(xs), len(a_of).bit_length() - 1, len(g_of).bit_length() - 1
    )
    if shape.size != n:
        return None
    ad, gd = shape.a_dim, shape.g_dim
    f = [(x << ad | a_of[t]) << gd | g_of[g] for x, t, g in zip(x_of, T, M[e0])]
    if len(set(f)) != n:  # every coordinate is in range, so f is onto 0..n-1
        return None

    gm, am = (1 << gd) - 1, ((1 << ad) - 1) << gd
    Mcomp = _compose_rows(M)[2]
    ones, ftab = lanes([1] * n), table(f)
    fg, fi = lanes([v & gm for v in f]), lanes(f)
    for mc, tc, fp in zip(Mcomp, Tcomp, f):
        if (lanes(mc(ftab)) != fg ^ fp * ones
                or lanes(tc(ftab)) != fi ^ (fp & am) * ones):
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
    """Quotient solution on the classes of elements sharing a theta map."""
    _certificate(s, "retract")
    n = s.size
    mul, th = derive_tables(s)

    # theta row -> class, numbered in the order of the rows' least members
    index: dict[tuple[int, ...], int] = {}
    class_of = [index.setdefault(row, len(index)) for row in th]
    k = len(index)
    members: list[list[int]] = [[] for _ in range(k)]
    for x, c in enumerate(class_of):
        members[c].append(x)

    # the quotient multiplication collapses to the left factor: xy ~ x
    for x in range(n):
        for y in range(n):
            if class_of[mul[x][y]] != class_of[x]:
                raise ValidationError("quotient multiplication is not left zero")

    # the members of class c1 share one theta row, so c1's image of c2 is
    # read off that row alone
    entries = [None] * (k * k)
    for c1, row in enumerate(index):
        for c2, grp2 in enumerate(members):
            vals = {class_of[row[y]] for y in grp2}
            if len(vals) != 1:
                raise ValidationError("theta does not descend to the quotient")
            entries[c1 * k + c2] = (c1, vals.pop())

    sizes = tuple(len(grp) for grp in members)
    if len(set(sizes)) > 1:
        raise ValidationError("retract classes have unequal sizes")

    return RetractResult(SolutionTable(k, tuple(entries)), tuple(class_of), sizes)


def retract_tower(s: SolutionTable) -> list[int]:
    """Sizes of iterated retracts, ending when the size repeats."""
    sizes = [s.size]
    cur = s
    while True:
        nxt = retract(cur).quotient
        sizes.append(nxt.size)
        if nxt.size == cur.size:
            return sizes
        cur = nxt


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
            if sorted(row) == list(range(n)):
                shapes[row] = ("perm", cycle_type(row))
            else:
                shapes[row] = ("map", tuple(sorted(row.count(v) for v in set(row))))
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
