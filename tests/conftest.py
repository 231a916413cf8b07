import random

import pytest
from hypothesis import settings, strategies as st

from pentagon import (
    SolutionTable,
    canonical_solution,
    cycle_solution,
    cyclic_group,
    decomposition_solution,
    group_solution,
    identity_solution,
    irretractable_solution,
    xor_group,
)
from pentagon.constructors import Decomposition, SigmaMap

# one profile for every property test: reproducible runs, no example
# database on disk, no per-example deadline on this slow pure-Python code
settings.register_profile(
    "pentagon", derandomize=True, database=None, deadline=None
)
settings.load_profile("pentagon")


def small_involutive_panel():
    """Involutive pentagon solutions of assorted shapes, sizes up to 12."""
    sigma = SigmaMap(2, 1, ((0, 1), (1, 0)))
    return [
        identity_solution(1),
        identity_solution(3),
        irretractable_solution(1),
        irretractable_solution(2),
        group_solution(xor_group(1)),
        group_solution(xor_group(2)),
        canonical_solution(2, 1, 0),
        canonical_solution(1, 1, 1),
        canonical_solution(3, 1, 1),
        decomposition_solution(Decomposition(2, 1, 0, sigma)),
    ]


def identity_with_one_cell_changed(n):
    """identity(n) with s(0, 1) = (2, 1): not a solution, but every element's
    signature equals identity(n)'s, so only the isomorphism search tells
    the two apart."""
    cells = list(identity_solution(n).entries)
    cells[1] = (2, 1)
    return SolutionTable(n, tuple(cells))


def bijective_finite_order_panel():
    """Bijective solutions of finite order that need not be involutive."""
    return [
        group_solution(cyclic_group(3)),
        group_solution(cyclic_group(4)),
        cycle_solution((3, 0, 1, 2), cyclic_group(2)),
        cycle_solution((1, 0, 3, 2), cyclic_group(1)),
    ] + small_involutive_panel()


def non_solution_panel(seed=20240305, count=12, max_size=3):
    """Random tables; very few will satisfy anything, none is assumed to."""
    from oracles import random_table

    rng = random.Random(seed)
    return [
        random_table(rng.randrange(1, max_size + 1), rng) for _ in range(count)
    ]


def prime_cycles_table():
    """Size 16, bijective; the pair map has one cycle of each prime 2..41
    (238 pair codes in order) and fixes the other 18, so its order is the
    primorial 304250263527210."""
    perm, start = list(range(256)), 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        for i in range(p):
            perm[start + i] = start + (i + 1) % p
        start += p
    return SolutionTable(16, tuple(divmod(q, 16) for q in perm))


CANONICAL_SHAPES = [
    (x, a, g)
    for x in (1, 2, 3)
    for a in (0, 1, 2)
    for g in (0, 1, 2)
    if x * 2 ** (a + g) <= 8
]


@st.composite
def near_solutions(draw):
    """A random table of size 1..5, or a canonical solution of size <= 8
    with one cell overwritten (the informative near-misses)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        cells = draw(st.lists(cell, min_size=n * n, max_size=n * n))
        return SolutionTable(n, tuple(cells))
    s = canonical_solution(*draw(st.sampled_from(CANONICAL_SHAPES)))
    n = s.size
    cells = list(s.entries)
    cells[draw(st.integers(0, n * n - 1))] = (
        draw(st.integers(0, n - 1)),
        draw(st.integers(0, n - 1)),
    )
    return SolutionTable(n, tuple(cells))


@pytest.fixture
def rng():
    return random.Random(20240305)


@st.composite
def near_groups(draw):
    """The Cayley table of a group of order <= 8, as lists, with at most one
    cell overwritten."""
    from oracles import symmetric_group

    groups = [cyclic_group(n) for n in range(1, 9)]
    groups += [xor_group(d) for d in (2, 3)] + [symmetric_group(3)]
    rows = [list(r) for r in draw(st.sampled_from(groups)).cayley]
    n = len(rows)
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(0, n - 1)
        )
    return rows
