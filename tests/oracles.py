"""Independent reference implementations for expected-value freezing.

Everything here evaluates the composite-map identities literally, as
dictionaries on the full triple set, sharing no code with the package
internals.  Slow and obviously correct is the point.  One exception:
`canonical_form_oracle` takes the least of the package's validated
`relabel` one permutation at a time instead of building the orbit as a
set.  `row_major_tables`, the search without symmetry breaking, prunes
with `chase_pentagon`, a triple-by-triple chase that accepts partial
tables and is itself checked against `pentagon_failures` in the core
tests.  `propagate_full_passes` is the search's closure as full passes
over every triple, one rule per visit, the reference for its cyclic
scan; it reads the second half of the equation both ways, as the
search does.

`symmetric_group`, `check_simple` and `perm_power` are library-style
helpers that only the tests call: a non-abelian group for the
constructor panels, the simplicity of the left groups that solutions
carry, and literal powers of a permutation.

`retract_oracle`, `is_irretractable`, `abelian_structure` and
`left_group_decomposition`, with its helpers `is_associative` and
`idempotents`, are the paper's route to the parts of X x A x G: the
retract of a solution, the quotient by equal theta maps checked to be
well defined, is irretractable and its theta maps add as the group A,
and the solution's multiplication is a left group, the idempotents X
times the group G.
They are the independent check on the parts that `decompose` reads off
a certificate.

`growth_tail_oracle` is a conjectured closed form, not a reference
route: it lets the growth tests reach sizes and lengths that the dense
closure cannot.
"""

from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Optional, Sequence

from pentagon import (
    GroupTable,
    RetractResult,
    SolutionTable,
    ValidationError,
    group_from_cayley,
    relabel,
)
from pentagon.core import compose_perms


def as_map(s: SolutionTable) -> dict:
    return {(i, j): s.apply(i, j) for i in range(s.size) for j in range(s.size)}


def presentation_oracle(s: SolutionTable) -> tuple:
    """Relations (x, y) -> (theta_x(y), x y), first occurrences, row-major."""
    rels = []
    smap = as_map(s)
    for x in range(s.size):
        for y in range(s.size):
            xy, theta_xy = smap[x, y]
            rel = ((x, y), (theta_xy, xy))
            if rel not in rels:
                rels.append(rel)
    return tuple(rels)


def _triples(n):
    return [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]


def _lift12(smap, n):
    out = {}
    for x, y, z in _triples(n):
        a, b = smap[(x, y)]
        out[(x, y, z)] = (a, b, z)
    return out


def _lift23(smap, n):
    out = {}
    for x, y, z in _triples(n):
        u, v = smap[(y, z)]
        out[(x, y, z)] = (x, u, v)
    return out


def _lift13(smap, n):
    # (tau x id)(id x s)(tau x id)
    out = {}
    for x, y, z in _triples(n):
        c, d = smap[(x, z)]
        out[(x, y, z)] = (c, y, d)
    return out


def compose(f, g):
    """f after g, as dictionaries."""
    return {k: f[v] for k, v in g.items()}


def pentagon_failures(s: SolutionTable) -> list:
    """Every triple where s23 s13 s12 and s12 s23 differ, in x, y, z order."""
    smap, n = as_map(s), s.size
    s12, s13, s23 = _lift12(smap, n), _lift13(smap, n), _lift23(smap, n)
    lhs, rhs = compose(s23, compose(s13, s12)), compose(s12, s23)
    return sorted(t for t in lhs if lhs[t] != rhs[t])


def pentagon_oracle(s: SolutionTable) -> bool:
    return not pentagon_failures(s)


def pentagon_failure_oracle(s: SolutionTable):
    """The least triple where the pentagon equation fails, or None."""
    failures = pentagon_failures(s)
    return failures[0] if failures else None


def pentagon_equations_oracle(s: SolutionTable) -> bool:
    """The pentagon axiom via its three identities on s(x, y) = (xy, theta_x(y)):

    (xy)z = x(yz), theta_x(y) * theta_{xy}(z) = theta_x(yz), and
    theta_{theta_x(y)} theta_{xy} = theta_y.
    """
    n = s.size
    mul = [[s.apply(x, y)[0] for y in range(n)] for x in range(n)]
    th = [[s.apply(x, y)[1] for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            xy, txy = mul[x][y], th[x][y]
            for z in range(n):
                if mul[xy][z] != mul[x][mul[y][z]]:
                    return False
                if mul[txy][th[xy][z]] != th[x][mul[y][z]]:
                    return False
                if th[txy][th[xy][z]] != th[y][z]:
                    return False
    return True


def reversed_pentagon_oracle(s: SolutionTable) -> bool:
    tmap, n = as_map(s), s.size
    t12, t13, t23 = _lift12(tmap, n), _lift13(tmap, n), _lift23(tmap, n)
    return compose(t12, compose(t13, t23)) == compose(t23, t12)


def commutative_oracle(s: SolutionTable) -> bool:
    smap, n = as_map(s), s.size
    s12, s13 = _lift12(smap, n), _lift13(smap, n)
    return compose(s12, s13) == compose(s13, s12)


def cocommutative_oracle(s: SolutionTable) -> bool:
    smap, n = as_map(s), s.size
    s13, s23 = _lift13(smap, n), _lift23(smap, n)
    return compose(s13, s23) == compose(s23, s13)


def involutive_oracle(s: SolutionTable) -> bool:
    smap = as_map(s)
    return compose(smap, smap) == {k: k for k in smap}


def associativity_failure_oracle(rows) -> Optional[tuple]:
    """The least triple (a, b, c) where (ab)c != a(bc), or None."""
    n = len(rows)
    return next(
        (
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]
        ),
        None,
    )


def bijective_oracle(s: SolutionTable) -> bool:
    smap = as_map(s)
    return len(set(smap.values())) == len(smap)


def order_oracle(s: SolutionTable, cap: int):
    smap = as_map(s)
    if not bijective_oracle(s):
        return None
    ident = {k: k for k in smap}
    cur = dict(smap)
    for m in range(1, cap + 1):
        if cur == ident:
            return m
        cur = compose(smap, cur)
    return None


def morphism_oracle(f, s: SolutionTable, t: SolutionTable) -> bool:
    smap, tmap = as_map(s), as_map(t)
    for (x, y), (k, l) in smap.items():
        if tmap[(f[x], f[y])] != (f[k], f[l]):
            return False
    return True


def brute_isomorphism(s: SolutionTable, t: SolutionTable):
    """First bijection making the square commute, by trying all of Sym(n)."""
    if s.size != t.size:
        return None
    for f in permutations(range(s.size)):
        if morphism_oracle(f, s, t):
            return f
    return None


def canonical_form_oracle(s: SolutionTable) -> SolutionTable:
    """Lexicographically smallest relabeling of the table."""
    best = None
    for p in permutations(range(s.size)):
        cand = relabel(s, p).entries
        if best is None or cand < best:
            best = cand
    return SolutionTable(s.size, best)


def decomposition_oracle(x: int, a: int, g: int, perms) -> SolutionTable:
    """The solution on X x A x G, written as the formula of the main theorem:

        s((x,a,g),(y,b,h)) = ((x, a, g+h), (sigma_{a+b} sigma_b^-1 (y), a+b, h)),

    with A and G the bitmask groups of rank a and g (so + is xor) and
    sigma_b = perms[b].  Elements are numbered in row-major (x, a, g) order.
    """
    elems = [
        (u, v, w) for u in range(x) for v in range(2**a) for w in range(2**g)
    ]
    index = {e: i for i, e in enumerate(elems)}
    inverse = [{p[i]: i for i in range(x)} for p in perms]
    smap = {}
    for xx, aa, gg in elems:
        for y, b, h in elems:
            c = aa ^ b
            smap[(xx, aa, gg), (y, b, h)] = (
                (xx, aa, gg ^ h),
                (perms[c][inverse[b][y]], c, h),
            )
    entries = []
    for e in elems:
        for f in elems:
            k, l = smap[e, f]
            entries.append((index[k], index[l]))
    return SolutionTable(len(elems), tuple(entries))


def _find(parent, w):
    while parent[w] != w:
        parent[w] = parent[parent[w]]
        w = parent[w]
    return w


def _dense_closure(n: int, relations, length: int) -> list:
    """Class root of every word of a length under pair relations.

    Closes all n**length words, encoded base n with the first letter most
    significant, under every relation (a, b) -> (c, d) at every position.
    Entry w of the result is the root of word w; two words are equal in
    the monoid iff their roots are.
    """
    rewrites = {}
    for lhs, rhs in relations:
        rewrites.setdefault(tuple(lhs), []).append(tuple(rhs))
    total = n**length
    parent = list(range(total))
    pows = [n**k for k in range(length)]
    for w in range(total):
        rest = w
        for p in range(length - 1):
            b = rest % n
            rest //= n
            a = rest % n
            for c, d in rewrites.get((a, b), ()):
                v = w + (c - a) * pows[p + 1] + (d - b) * pows[p]
                ra, rb = _find(parent, w), _find(parent, v)
                parent[ra] = rb
    return [_find(parent, w) for w in range(total)]


def dense_stratum(s: SolutionTable, length: int) -> list:
    """Class root of every word of a length in the structure monoid of s.

    The rewrites are x . y = theta_x(y) . (x y), that is the pair s(x, y)
    read right to left.
    """
    relations = [
        ((x, y), (theta_xy, xy)) for (x, y), (xy, theta_xy) in as_map(s).items()
    ]
    return _dense_closure(s.size, relations, length)


def growth_oracle(s: SolutionTable, length: int) -> tuple:
    """Word-class counts of each length 0..length, by dense closure."""
    return tuple(len(set(dense_stratum(s, ell))) for ell in range(length + 1))


def presentation_growth_oracle(generators: int, relations, length: int) -> tuple:
    """Word-class counts of each length 0..length of a pair presentation."""
    return tuple(
        len(set(_dense_closure(generators, relations, ell)))
        for ell in range(length + 1)
    )


def growth_tail_oracle(x: int, a: int, g: int, length: int) -> int:
    """Conjectured class count of canonical(x, a, g) at a length past a + g.

    N(a + g) * C(length + x - 1, x - 1), where N(d) counts the subspaces
    of F_2^d, summed over their dimensions k as Gaussian binomials.
    Not stated in the paper: a closed form the tests check, not a route.
    """
    d = a + g
    subspaces = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (d - i) - 1
            den *= 2 ** (i + 1) - 1
        subspaces += num // den
    return subspaces * comb(length + x - 1, x - 1)


def normal_forms_oracle(s: SolutionTable, length: int) -> list:
    """Least word of each class of a length, in lexicographic order."""
    n = s.size
    out, seen = [], set()
    for w, root in enumerate(dense_stratum(s, length)):
        if root not in seen:
            seen.add(root)
            out.append(tuple(w // n**k % n for k in reversed(range(length))))
    return out


def _involutions(points):
    """Every involution of a list of points, as a dict point -> partner."""
    if not points:
        yield {}
        return
    p, rest = points[0], points[1:]
    for inv in _involutions(rest):
        yield {**inv, p: p}
    for i, q in enumerate(rest):
        for inv in _involutions(rest[:i] + rest[i + 1:]):
            yield {**inv, p: q, q: p}


def naive_tables(n: int) -> list:
    """Every involutive solution of size n: all involutions of the pair set,
    filtered by the pentagon oracle, sorted by entries."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    tables = (
        SolutionTable(n, tuple(inv[p] for p in pairs))
        for inv in _involutions(pairs)
    )
    return sorted(
        (s for s in tables if pentagon_oracle(s)), key=lambda t: t.entries
    )


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

    `row_major_tables` prunes its partial tables with it; the library
    checks complete tables by rows (`pentagon_witness`) and its own
    search propagates the two comparisons itself
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


def _write_pair(n: int, F: list, T: list, w: int, k: int, l: int) -> bool:
    """Write s(w) = (k, l) and s(k, l) = w into the layers; False if
    either cell already holds another coordinate."""
    i, j = divmod(w, n)
    v = k * n + l
    for cell, first, second in ((w, k, l), (v, i, j)):
        if F[cell] not in (-1, first) or T[cell] not in (-1, second):
            return False
    F[w], T[w] = k, l
    F[v], T[v] = i, j
    return True


def propagate_full_passes(n: int, F: list, T: list) -> bool:
    """The search's closure (`enumeration._propagate`) by full passes:
    every triple (x, y, z) in row-major order, pass after pass, until a
    pass writes nothing; False at the first contradiction.  F and T are
    the flat first- and second-coordinate layers, -1 where unknown, and
    are closed in place.

    With s(x,y) = (a,b), s(y,z) = (u,v), s(a,z) = (c,d), s(x,u) = (p,q)
    and s(b,d) = (e,f), a visit fires the first of these rules that
    writes and moves on:
    c = p, either way; then, with b and d known, e = q, either way
    (a known e writes the cell s(x,u) = (c,e)); then, with e known,
    f = v, either way (a known v writes s(b,d) = (e,v), a known f
    writes s(y,z) = (u,f)).  Every cell is written with its partner.
    Two known values that the rules equate must agree.  The same rules
    as the library's, fired in another order."""
    while True:
        wrote = False
        for x in range(n):
            for y in range(n):
                a = F[x * n + y]
                if a < 0:
                    continue
                for z in range(n):
                    u = F[y * n + z]
                    if u < 0:
                        continue
                    xy, yz, az, xu = x * n + y, y * n + z, a * n + z, x * n + u
                    c, p = F[az], F[xu]
                    if c >= 0 and p >= 0 and c != p:
                        return False
                    if c >= 0 > p:
                        F[xu] = c
                        wrote = True
                        continue
                    if p >= 0 > c:
                        F[az] = p
                        wrote = True
                        continue
                    b, d = T[xy], T[az]
                    if c < 0 or b < 0 or d < 0:
                        continue
                    bd = b * n + d
                    e, q = F[bd], T[xu]
                    if e >= 0 and q >= 0 and e != q:
                        return False
                    if q >= 0 > e:
                        F[bd] = q
                        wrote = True
                        continue
                    if e >= 0 > q:
                        if not _write_pair(n, F, T, xu, c, e):
                            return False
                        wrote = True
                        continue
                    f, v = T[bd], T[yz]
                    if e < 0:
                        continue
                    if f >= 0 and v >= 0 and f != v:
                        return False
                    if v >= 0 > f:
                        if not _write_pair(n, F, T, bd, e, v):
                            return False
                        wrote = True
                    elif f >= 0 > v:
                        if not _write_pair(n, F, T, yz, u, f):
                            return False
                        wrote = True
        if not wrote:
            return True


def _row_major(n, cells, start, out):
    p = start
    while p < n * n and cells[p] is not None:
        p += 1
    if p == n * n:
        out.append(tuple(cells))
        return
    for q in range(p, n * n):
        if q != p and cells[q] is not None:
            continue
        cells[p] = divmod(q, n)
        cells[q] = divmod(p, n)
        if chase_pentagon(cells, n) is None:
            _row_major(n, cells, p + 1, out)
        cells[p] = None
        cells[q] = None


def row_major_tables(n: int) -> list:
    """Every involutive solution of size n, sorted by entries, from the
    search without symmetry breaking or forced cells: cells in row-major
    order, every value whose partner cell is free, pruned by the chase."""
    out = []
    _row_major(n, [None] * (n * n), 0, out)
    return [SolutionTable(n, t) for t in sorted(out)]


def random_table(n, rng) -> SolutionTable:
    return SolutionTable(
        n,
        tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(n * n)
        ),
    )


def random_involution_table(n, rng) -> SolutionTable:
    """A uniform-ish random involution of the pair set (not a solution per se)."""
    m = n * n
    points = list(range(m))
    rng.shuffle(points)
    flat = [-1] * m
    while points:
        p = points.pop()
        if flat[p] >= 0:
            continue
        partners = [p] + [q for q in points if flat[q] < 0]
        q = rng.choice(partners)
        flat[p] = q
        flat[q] = p
    return SolutionTable(n, tuple(divmod(v, n) for v in flat))


def symmetric_group(n: int) -> GroupTable:
    """Sym(n) on the lexicographically ordered list of permutations."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    rows = [
        [index[compose_perms(p, q)] for q in elems]
        for p in elems
    ]
    return group_from_cayley(rows)


def is_associative(rows: Sequence[Sequence[int]]) -> bool:
    return associativity_failure_oracle(rows) is None


def idempotents(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(x for x, row in enumerate(rows) if row[x] == x)


def _theta_rows(s: SolutionTable) -> list:
    """Row x holds theta_x(y) = the second coordinate of s(x, y)."""
    smap = as_map(s)
    return [tuple(smap[x, y][1] for y in range(s.size)) for x in range(s.size)]


def is_irretractable(s: SolutionTable) -> bool:
    """Whether all theta maps of a solution are pairwise distinct."""
    return len(set(_theta_rows(s))) == s.size


def retract_oracle(s: SolutionTable) -> RetractResult:
    """The quotient by equal theta maps, classes numbered by least member,
    built from the theta rows with the three checks that make it well
    defined: the multiplication collapses to its left factor, theta
    descends to the classes, and the classes have equal sizes."""
    smap = as_map(s)
    index: dict = {}
    class_of = [index.setdefault(row, len(index)) for row in _theta_rows(s)]
    members: list = [[] for _ in index]
    for x, c in enumerate(class_of):
        members[c].append(x)
    for (x, _), (xy, _) in smap.items():
        if class_of[xy] != class_of[x]:
            raise ValidationError("quotient multiplication is not left zero")
    entries = []
    for c1, row in enumerate(index):
        for grp in members:
            images = {class_of[row[y]] for y in grp}
            if len(images) != 1:
                raise ValidationError("theta does not descend to the quotient")
            entries.append((c1, images.pop()))
    sizes = tuple(map(len, members))
    if len(set(sizes)) > 1:
        raise ValidationError("retract classes have unequal sizes")
    return RetractResult(
        SolutionTable(len(index), tuple(entries)), tuple(class_of), sizes
    )


def abelian_structure(s: SolutionTable) -> GroupTable:
    """The group with x + y = theta_x(y) carried by an irretractable solution."""
    th = _theta_rows(s)
    if len(set(th)) != s.size:
        raise ValidationError("abelian_structure requires an irretractable solution")
    g = group_from_cayley(th)
    # exponent 2 makes g abelian: xy = (xy)^-1 = y^-1 x^-1 = yx
    if g.exponent > 2:
        raise ValidationError("derived group is not of exponent 2")
    return g


@dataclass(frozen=True)
class LeftGroupDecomposition:
    idempotents: tuple[int, ...]
    group_part: GroupTable


def left_group_decomposition(
    rows: Sequence[Sequence[int]],
) -> Optional[LeftGroupDecomposition]:
    """Split a left group, given by its multiplication rows, as idempotents x
    group; None if the rows are not one."""
    if not is_associative(rows):
        raise ValidationError("multiplication is not associative")
    n = len(rows)
    idem = idempotents(rows)
    # left simple: Sx = S for every x
    full = set(range(n))
    for x in range(n):
        if {rows[y][x] for y in range(n)} != full:
            return None

    # some power of any element of a finite semigroup is idempotent
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


def check_simple(rows: Sequence[Sequence[int]]) -> bool:
    """Whether every two-sided ideal of the semigroup with these
    multiplication rows is everything."""
    if not is_associative(rows):
        raise ValidationError("multiplication is not associative")
    n = len(rows)
    for y in range(n):
        ideal = {y}
        frontier = [y]
        while frontier:
            j = frontier.pop()
            for a in range(n):
                for v in (rows[a][j], rows[j][a]):
                    if v not in ideal:
                        ideal.add(v)
                        frontier.append(v)
        if len(ideal) != n:
            return False
    return True


def perm_power(p: Sequence[int], k: int) -> tuple:
    """k-fold composition of p with itself, k >= 0."""
    out = tuple(range(len(p)))
    for _ in range(k):
        out = compose_perms(p, out)
    return out


def sigma_condition_oracle(sigma: Sequence[int]) -> Optional[int]:
    """First 1-based label i with sigma^(sigma(i)+1) != sigma^i, or None,
    comparing the two powers composed out literally."""
    p = tuple(sigma)
    for i0 in range(len(p)):
        if perm_power(p, p[i0] + 2) != perm_power(p, i0 + 1):
            return i0 + 1
    return None
