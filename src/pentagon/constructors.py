"""Builders for every solution family, plus the finite groups they consume.

Elementary abelian 2-groups are always realized as bitmask groups (xor on
0..2^r - 1); a general Cayley table is accepted only by the constructors
whose hypotheses allow an arbitrary group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from math import factorial, inf, lcm, lgamma, log
from typing import Optional, Sequence

from .core import (
    MultTable,
    SolutionTable,
    ValidationError,
    associativity_witness,
    compose_perms,
    inverse_perm,
    perm_order,
)


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class GroupTable:
    """A finite group by Cayley table, with its identity and exponent."""

    size: int
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    exponent: int


def group_from_cayley(rows: Sequence[Sequence[int]]) -> GroupTable:
    """Validate a Cayley table and package it; names the failing axiom."""
    n = len(rows)
    if n < 1:
        raise ValidationError("group must have at least one element")
    cayley = tuple(tuple(r) for r in rows)
    if any(len(r) != n for r in cayley):
        raise ValidationError("Cayley table is not square")
    if any(not 0 <= v < n for r in cayley for v in r):
        raise ValidationError("Cayley table entry out of range")

    identity = None
    for e in range(n):
        if all(cayley[e][x] == x == cayley[x][e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValidationError("identity axiom fails: no two-sided identity")

    bad = associativity_witness(cayley)
    if bad is not None:
        raise ValidationError("associativity axiom fails at (%d,%d,%d)" % bad)

    for a in range(n):
        if not any(
            cayley[a][b] == identity == cayley[b][a] for b in range(n)
        ):
            raise ValidationError(f"inverse axiom fails: element {a}")

    # the order of a is the order of right multiplication by a
    exponent = lcm(*(perm_order([row[a] for row in cayley]) for a in range(n)))
    return GroupTable(n, cayley, identity, exponent)


def trivial_group() -> GroupTable:
    return group_from_cayley([[0]])


def cyclic_group(n: int) -> GroupTable:
    return group_from_cayley([[(i + j) % n for j in range(n)] for i in range(n)])


def xor_group(dim: int) -> GroupTable:
    """The elementary abelian 2-group of rank dim on bitmasks 0..2^dim - 1."""
    if dim < 0:
        raise ValidationError("dimension must be non-negative")
    n = 1 << dim
    return group_from_cayley([[i ^ j for j in range(n)] for i in range(n)])


def direct_product_group(g: GroupTable, h: GroupTable) -> GroupTable:
    nh = h.size
    n = g.size * nh
    rows = [[0] * n for _ in range(n)]
    for a1 in range(g.size):
        for a2 in range(nh):
            for b1 in range(g.size):
                for b2 in range(nh):
                    rows[a1 * nh + a2][b1 * nh + b2] = (
                        g.cayley[a1][b1] * nh + h.cayley[a2][b2]
                    )
    return group_from_cayley(rows)


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class SigmaMap:
    """One permutation of 0..x_size-1 per bitmask a in 0..2^a_dim - 1.

    No compatibility between the permutations is required.
    """

    x_size: int
    a_dim: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.perms) != 1 << self.a_dim:
            raise ValidationError(
                f"expected {1 << self.a_dim} permutations, got {len(self.perms)}"
            )
        for a, p in enumerate(self.perms):
            if sorted(p) != list(range(self.x_size)):
                raise ValidationError(
                    f"entry {a} is not a permutation of 0..{self.x_size - 1}"
                )


def trivial_sigma(x_size: int, a_dim: int) -> SigmaMap:
    return SigmaMap(x_size, a_dim, (tuple(range(x_size)),) * (1 << a_dim))


@dataclass(frozen=True)
class Decomposition:
    """Shape (x_size, a_dim, g_dim) of a carrier X x A x G, with optional sigma."""

    x_size: int
    a_dim: int
    g_dim: int
    sigma: Optional[SigmaMap] = None

    def __post_init__(self):
        if self.x_size < 1:
            raise ValidationError("x_size must be at least 1")
        if self.a_dim < 0 or self.g_dim < 0:
            raise ValidationError("dimensions must be non-negative")
        if self.sigma is not None:
            if self.sigma.x_size != self.x_size or self.sigma.a_dim != self.a_dim:
                raise ValidationError(
                    "sigma dimensions do not match the decomposition"
                )

    @property
    def size(self) -> int:
        return self.x_size << (self.a_dim + self.g_dim)


# ---------------------------------------------------------------------------
# solution families


def identity_solution(n: int) -> SolutionTable:
    return SolutionTable(n, tuple(product(range(n), repeat=2)))


def group_solution(g: GroupTable) -> SolutionTable:
    """The unique bijective solution s(x, y) = (xy, y) on a group."""
    return SolutionTable(
        g.size, tuple((xy, y) for row in g.cayley for y, xy in enumerate(row))
    )


def irretractable_solution(dim: int) -> SolutionTable:
    """t(x, y) = (x, x xor y) on bitmasks; irretractable and involutive."""
    if dim < 0:
        raise ValidationError("dimension must be non-negative")
    n = 1 << dim
    return SolutionTable(n, tuple((x, x ^ y) for x in range(n) for y in range(n)))


def ext_solution(dec: Decomposition) -> SolutionTable:
    """Extension of the bitmask solution on A by X and sigma: the
    decomposition_solution with g_dim == 0, the only shape it accepts."""
    if dec.g_dim != 0:
        raise ValidationError("extension requires g_dim == 0")
    return decomposition_solution(dec)


def canonical_solution(x_size: int, a_dim: int, g_dim: int) -> SolutionTable:
    """The representative of class (x_size, a_dim, g_dim), row-major over (x, a, g).

    s((x,a,g),(y,b,h)) = ((x, a, g^h), (y, a^b, h)).
    """
    return decomposition_solution(Decomposition(x_size, a_dim, g_dim))


def decomposition_solution(dec: Decomposition) -> SolutionTable:
    """The general form on X x A x G, row-major over (x, a, g).

    s((x,a,g),(y,b,h)) = ((x, a, g^h), (sigma_{a^b} sigma_b^{-1}(y), a^b, h)),
    with the trivial sigma when dec.sigma is None.
    """
    sigma = dec.sigma or trivial_sigma(dec.x_size, dec.a_dim)
    ad, gd = dec.a_dim, dec.g_dim
    xs, am, gm = range(dec.x_size), range(1 << ad), range(1 << gd)
    inverses = [inverse_perm(p) for p in sigma.perms]
    # theta_(x,a,g) depends on a alone: one row over (y, b, h) per a
    thetas = [
        [(sigma.perms[a ^ b][inverses[b][y]] << ad | a ^ b) << gd | h
         for y in xs for b in am for h in gm]
        for a in am
    ]
    # the first coordinate (x, a, g^h) repeats with period |G| along a row
    blocks = dec.x_size << ad
    return SolutionTable(dec.size, tuple(chain.from_iterable(
        zip([(x << ad | a) << gd | g ^ h for h in gm] * blocks, thetas[a])
        for x in xs for a in am for g in gm
    )))


def endo_solution(m: MultTable, f: Sequence[int]) -> SolutionTable:
    """s(x, y) = (xy, f(y)) for an idempotent endomorphism f of a semigroup."""
    n = m.size
    fm = tuple(f)
    if len(fm) != n or any(not 0 <= v < n for v in fm):
        raise ValidationError("f is not a total map on the carrier")
    bad = associativity_witness(m.rows)
    if bad is not None:
        raise ValidationError(
            "multiplication is not associative at (%d,%d,%d)" % bad
        )
    if any(fm[fm[x]] != fm[x] for x in range(n)):
        raise ValidationError("f is not idempotent")
    for x in range(n):
        for y in range(n):
            if fm[m.rows[x][y]] != m.rows[fm[x]][fm[y]]:
                raise ValidationError("f is not an endomorphism")
    return SolutionTable(
        n, tuple(cell for row in m.rows for cell in zip(row, fm))
    )


def idempotent_pair_solution(
    n: int, f: Sequence[int], g: Sequence[int]
) -> SolutionTable:
    """s(x, y) = (f(x), g(y)) for commuting idempotent maps f and g."""
    fm, gm = tuple(f), tuple(g)
    for name, mp in (("f", fm), ("g", gm)):
        if len(mp) != n or any(not 0 <= v < n for v in mp):
            raise ValidationError(f"{name} is not a total map on the carrier")
        if any(mp[mp[x]] != mp[x] for x in range(n)):
            raise ValidationError(f"{name} is not idempotent")
    if any(fm[gm[x]] != gm[fm[x]] for x in range(n)):
        raise ValidationError("f and g do not commute")
    return SolutionTable(n, tuple((fx, gy) for fx in fm for gy in gm))


# ---------------------------------------------------------------------------
# the cycle family and its permutation condition
#
# Labels run 1..n in the condition, storage is 0-based.  sigma^e = sigma^f
# exactly when the order of sigma divides e - f, so label i0 + 1 passes
# when perm_order(p) divides p[i0] + 1 - i0, with p the 0-based sigma.


def sigma_condition_witness(sigma: Sequence[int]) -> Optional[int]:
    """First 1-based label i violating sigma^(sigma(i)+1) = sigma^i, or None."""
    p = tuple(sigma)
    if sorted(p) != list(range(len(p))):
        raise ValidationError("sigma is not a permutation")
    order = perm_order(p)
    for i0, v in enumerate(p):
        if (v + 1 - i0) % order:
            return i0 + 1
    return None


def cycle_solution(sigma: Sequence[int], g: GroupTable) -> SolutionTable:
    """s((i,a),(j,b)) = ((i, ab), (sigma^i(j), b)) on labels i in 1..n.

    Requires the exponent condition sigma^(sigma(i)+1) = sigma^i for every
    label; the order of the result is lcm(order of sigma, exponent of G).
    """
    p = tuple(sigma)
    bad = sigma_condition_witness(p)
    if bad is not None:
        raise ValidationError(f"sigma condition fails at label i={bad}")
    ng = g.size
    powers = [p]  # sigma^1 .. sigma^n
    for _ in p[1:]:
        powers.append(compose_perms(p, powers[-1]))
    return SolutionTable(len(p) * ng, tuple(
        (i0 * ng + ab, j * ng + b)
        for i0, power in enumerate(powers) for row in g.cayley
        for j in power for b, ab in enumerate(row)
    ))


# sigma_search builds its members instead of filtering Sym(n), so what
# bounds it is the output: n entries for each of the 1 + sum over d | n,
# d >= 2, of ((n/d)!)^(d-1) members.  n = 16 (54,274 members) passes
# and n = 18 (889,314) is refused before anything is built.
MAX_SIGMA_ENTRIES = 1 << 20


def _sigma_count(n: int) -> float:
    """len(sigma_search(n)), or inf where n alone or one summand of the
    count is past MAX_SIGMA_ENTRIES, so no factorial of a large n is taken."""
    if n > MAX_SIGMA_ENTRIES:
        return inf
    orders = [d for d in range(2, n + 1) if n % d == 0]
    if any(lgamma(n // d + 1) * (d - 1) > log(MAX_SIGMA_ENTRIES) for d in orders):
        return inf
    return 1 + sum(factorial(n // d) ** (d - 1) for d in orders)


def sigma_search(n: int) -> list[tuple[int, ...]]:
    """All permutations in Sym(n) satisfying the exponent condition, lex order.

    With d = ord sigma the condition reads sigma(i) = i - 1 mod d, so d
    divides n and sigma maps each residue class mod d onto the previous
    one.  Besides the identity, each member of order d >= 2 is a choice of
    bijections from class r onto class r - 1 for r = d-1, ..., 1, with the
    map from class 0 onto class d-1 that closes every cycle, sigma^d = id.
    Class r holds r + t*d for t < n/d, so a bijection is a permutation of
    the positions t.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if n * _sigma_count(n) > MAX_SIGMA_ENTRIES:
        raise ValidationError(
            f"n {n} exceeds the cap of {MAX_SIGMA_ENTRIES} output entries"
        )
    found = [tuple(range(n))]
    for d in range(2, n + 1):
        if n % d:
            continue
        for steps in product(permutations(range(n // d)), repeat=d - 1):
            p = [0] * n
            for t in range(n // d):  # the cycle through d - 1 + t*d
                s = t
                for r in range(d - 1, 0, -1):
                    p[r + s * d] = r - 1 + steps[r - 1][s] * d
                    s = steps[r - 1][s]
                p[s * d] = d - 1 + t * d
            found.append(tuple(p))
    return sorted(found)
