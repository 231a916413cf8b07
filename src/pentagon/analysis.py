"""Retraction, classification invariants, and isomorphism testing.

Operations whose statements only make sense for involutive solutions
verify that hypothesis up front and raise on anything else; the quotient
constructions additionally re-check their own well-definedness, which is
cheap at these sizes and catches table bugs immediately.  Only the
left-group helpers take a `MultTable`; the rest read `derive_tables` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    Bijection,
    BudgetError,
    MultTable,
    SolutionTable,
    ValidationError,
    associativity_witness,
    check_involutive,
    check_pentagon,
    cycle_type,
    derive_tables,
    is_morphism,
)
from .constructors import GroupTable, group_from_cayley

@dataclass(frozen=True)
class RetractResult:
    """Quotient by the relation 'same theta map', classes numbered by least member."""

    quotient: SolutionTable
    class_of: tuple[int, ...]
    class_sizes: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationTriple:
    """The complete isomorphism invariant (|X|, log2 |A|, log2 |G|)."""

    x_size: int
    a_dim: int
    g_dim: int


@dataclass(frozen=True)
class LeftGroupDecomposition:
    idempotents: tuple[int, ...]
    group_part: GroupTable


def is_associative(m: MultTable) -> bool:
    return associativity_witness(m.rows) is None


def idempotents(m: MultTable) -> tuple[int, ...]:
    return tuple(x for x in range(m.size) if m.rows[x][x] == x)


def _require_involutive_solution(s: SolutionTable, op: str) -> None:
    if not check_involutive(s):
        raise ValidationError(f"{op} requires an involutive table")
    if not check_pentagon(s):
        raise ValidationError(f"{op} requires a pentagon solution")


def retract(s: SolutionTable) -> RetractResult:
    """Quotient solution on the classes of elements sharing a theta map."""
    _require_involutive_solution(s, "retract")
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


def is_irretractable(s: SolutionTable) -> bool:
    """Whether all theta maps are pairwise distinct."""
    _require_involutive_solution(s, "is_irretractable")
    _, th = derive_tables(s)
    return len(set(th)) == s.size


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


def abelian_structure(s: SolutionTable) -> GroupTable:
    """The group with x + y = theta_x(y) carried by an irretractable solution."""
    _require_involutive_solution(s, "abelian_structure")
    _, th = derive_tables(s)
    if len(set(th)) != s.size:
        raise ValidationError("abelian_structure requires an irretractable solution")
    g = group_from_cayley(th)
    # exponent 2 makes g abelian: xy = (xy)^-1 = y^-1 x^-1 = yx
    if g.exponent > 2:
        raise ValidationError("derived group is not of exponent 2")
    return g


def left_group_decomposition(m: MultTable) -> Optional[LeftGroupDecomposition]:
    """Split a left group as idempotents x group, None if m is not one."""
    if not is_associative(m):
        raise ValidationError("multiplication is not associative")
    n = m.size
    rows = m.rows
    idem = idempotents(m)
    if not idem:
        return None
    # left simple: Sx = S for every x
    full = set(range(n))
    for x in range(n):
        if {rows[y][x] for y in range(n)} != full:
            return None

    e = idem[0]
    part = sorted({rows[rows[e][x]][e] for x in range(n)})
    index = {v: i for i, v in enumerate(part)}
    sub = [[index[rows[a][b]] for b in part] for a in part]
    group = group_from_cayley(sub)
    if len(idem) * group.size != n:
        raise ValidationError("left group size bookkeeping failed")
    for f in idem:
        if any(rows[x][f] != x for x in range(n)):
            raise ValidationError("an idempotent is not a right identity")
    return LeftGroupDecomposition(idem, group)


def classify(s: SolutionTable) -> ClassificationTriple:
    """Invariant (|X|, log2 |A|, log2 |G|) of an involutive solution.

    |A| is the retract size, |G| is |S| / |E(S)|, and |X| makes the
    product come out to |S|; both logs are checked to be exact.
    """
    ret = retract(s)
    n = s.size
    num_idem = sum(s.apply(x, x)[0] == x for x in range(n))

    a_size = ret.quotient.size
    a_dim = a_size.bit_length() - 1
    if 1 << a_dim != a_size:
        raise ValidationError("retract size is not a power of two")
    if n % num_idem:
        raise ValidationError("idempotent count does not divide the size")
    g_size = n // num_idem
    g_dim = g_size.bit_length() - 1
    if 1 << g_dim != g_size:
        raise ValidationError("group part size is not a power of two")
    if num_idem % a_size:
        raise ValidationError("retract size does not divide the idempotent count")
    # n = num_idem * g_size and num_idem = x_size * a_size, both exactly
    return ClassificationTriple(num_idem // a_size, a_dim, g_dim)


def is_isomorphic_invariant(s: SolutionTable, t: SolutionTable) -> bool:
    """Whether the classification triples agree: isomorphism by the theorem.

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
