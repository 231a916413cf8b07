import random

import pytest
from hypothesis import given, strategies as st

from pentagon import (
    Bijection,
    SolutionTable,
    ValidationError,
    check_bijective,
    check_cocommutative,
    check_commutative,
    check_involutive,
    check_pentagon,
    check_reversed_pentagon,
    canonical_solution,
    cycle_solution,
    cyclic_group,
    decomposition_solution,
    derive_tables,
    endo_solution,
    flip_conjugate,
    group_solution,
    identity_solution,
    irretractable_solution,
    is_morphism,
    order_of,
    pentagon_witness,
    product_solution,
    relabel,
    xor_group,
)
from pentagon import core
from pentagon.analysis import classify
from pentagon.constructors import Decomposition, SigmaMap, group_from_cayley
from pentagon.core import associativity_witness, compose_perms, inverse_perm

from conftest import (
    bijective_finite_order_panel,
    near_groups,
    near_solutions,
    non_solution_panel,
    prime_cycles_table,
    small_involutive_panel,
)
import oracles

FLIP2 = SolutionTable(2, ((0, 0), (1, 0), (0, 1), (1, 1)))


def test_derive_tables_group_solution():
    mult, theta = derive_tables(group_solution(cyclic_group(2)))
    assert mult == ((0, 1), (1, 0))
    assert theta == ((0, 1), (0, 1))


def test_derive_tables_identity():
    mult, theta = derive_tables(identity_solution(2))
    assert mult == ((0, 0), (1, 1))
    assert theta == ((0, 1), (0, 1))


def test_derive_tables_bitmask_solution():
    mult, theta = derive_tables(irretractable_solution(1))
    assert mult == ((0, 0), (1, 1))
    assert theta == ((0, 1), (1, 0))


def test_derive_tables_are_the_coordinate_rows():
    from pentagon import enumerate_pruned

    tables = [s for n in range(1, 5) for s in enumerate_pruned(n)]
    for s in tables + non_solution_panel() + [canonical_solution(4, 2, 2)]:
        n = s.size
        mult, theta = derive_tables(s)
        assert mult == tuple(
            tuple(s.apply(x, y)[0] for y in range(n)) for x in range(n)
        )
        assert theta == tuple(
            tuple(s.apply(x, y)[1] for y in range(n)) for x in range(n)
        )
        assert all(type(rows) is tuple for rows in (mult, theta, *mult, *theta))


def test_pentagon_group_solution():
    assert check_pentagon(group_solution(cyclic_group(2)))


def test_pentagon_flip_fails():
    assert not oracles.pentagon_oracle(FLIP2)
    assert not check_pentagon(FLIP2)
    assert pentagon_witness(FLIP2) == (0, 1, 0)


def test_pentagon_identity():
    for n in (1, 2, 3, 5):
        assert check_pentagon(identity_solution(n))
        assert pentagon_witness(identity_solution(n)) is None


def test_pentagon_routes_agree():
    panel = small_involutive_panel() + non_solution_panel() + [FLIP2]
    panel.append(group_solution(oracles.symmetric_group(3)))
    for s in panel:
        expected = oracles.pentagon_oracle(s)
        assert check_pentagon(s) == expected
        assert oracles.pentagon_equations_oracle(s) == expected


@given(s=near_solutions())
def test_pentagon_witness_is_the_least_failing_triple(s):
    assert pentagon_witness(s) == oracles.pentagon_failure_oracle(s)


@given(s=near_solutions(), data=st.data())
def test_chase_on_a_partial_table_reports_only_real_failures(s, data):
    # the oracles' row-major search prunes on this chase, so a triple it
    # finds with cells still blank must fail on the complete table too
    n = s.size
    keep = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    cells = [c if k else None for c, k in zip(s.entries, keep)]
    found = oracles.chase_pentagon(cells, n)
    assert found is None or found in oracles.pentagon_failures(s)


# every canonical shape whose carrier has 16..64 elements
LARGE_SHAPES = [
    (x, a, g)
    for a in range(7)
    for g in range(7 - a)
    for x in range(1, 65)
    if 16 <= x << (a + g) <= 64
]


def large_near_misses():
    """Each large shape under a seeded relabelling, with a one-cell and a
    two-cell overwrite of it."""
    rng = random.Random(20240305)
    for shape in LARGE_SHAPES:
        s = canonical_solution(*shape)
        n = s.size
        perm = list(range(n))
        rng.shuffle(perm)
        s = relabel(s, perm)
        misses = []
        for overwritten in (1, 2):
            cells = list(s.entries)
            for _ in range(overwritten):
                cells[rng.randrange(n * n)] = (rng.randrange(n), rng.randrange(n))
            misses.append(SolutionTable(n, tuple(cells)))
        yield s, misses


def test_byte_rows_agree_with_the_chase_on_large_tables():
    for s, misses in large_near_misses():
        # a solution, where the chase returns None after n^3 lookups
        assert pentagon_witness(s) is None
        for t in misses:
            assert pentagon_witness(t) == oracles.chase_pentagon(t.entries, t.size)


def witness_with_route_spy(s, byte_range):
    """`pentagon_witness(s)` under a given byte range, and whether it took
    the wide route, where `_compose_rows` returns tuple rows."""
    routes = []
    compose_rows = core._compose_rows

    def spy(rows):
        composed = compose_rows(rows)
        routes.append(type(composed[0][0]) is tuple)
        return composed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BYTE_RANGE", byte_range)
        mp.setattr(core, "_compose_rows", spy)
        return pentagon_witness(s), any(routes)


def byte_ranges(n):
    """The byte ranges that put a carrier of size n on each route; size 1
    stays on the byte route, where itemgetter of one index is no row."""
    return (256, 1) if n > 1 else (256,)


@given(s=near_solutions())
def test_carriers_beyond_the_byte_range_take_the_wide_route(s):
    # a byte range of at least 1 keeps single-element rows off the wide
    # route, where itemgetter of one index would return a scalar
    found, wide = witness_with_route_spy(s, 1)
    assert found == oracles.pentagon_failure_oracle(s)
    assert wide == (s.size > 1)


def test_byte_rows_cover_exactly_the_byte_range():
    # s(0, 1) = (1, 1) on the identity first fails at c != p for (0, 2, 1)
    for n in (256, 257):
        cells = list(identity_solution(n).entries)
        cells[1] = (1, 1)
        t = SolutionTable(n, tuple(cells))
        assert witness_with_route_spy(t, 256) == ((0, 2, 1), n == 257)


def test_compose_rows_switches_to_tuples_above_the_byte_range():
    # the row length decides, so a single row, such as a row of ones,
    # comes back in the format of its carrier's n rows
    for n in (256, 257):
        kind, width = (bytes, 8) if n == 256 else (tuple, 16)
        identity = [tuple(range(n))] * n
        rows, tables, composers = core._compose_rows(identity)
        assert {type(r) for r in rows} == {kind}
        assert list(rows[0]) == list(range(n))
        assert composers[0](tables[1]) == rows[2]
        (ones,), (table,), (composer,) = core._compose_rows([[1] * n])
        assert type(ones) is kind and list(ones) == [1] * n
        assert composers[0](table) == ones and composer(tables[0]) == ones
        assert core._lanes(ones) == sum(1 << width * i for i in range(n))
        assert core._lanes(rows[0]) == sum(i << width * i for i in range(n))


@given(s=near_solutions())
def test_row_laws_match_the_oracles_on_both_routes(s):
    want = (
        oracles.commutative_oracle(s),
        oracles.cocommutative_oracle(s),
        oracles.involutive_oracle(s),
    )
    for byte_range in byte_ranges(s.size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BYTE_RANGE", byte_range)
            got = (check_commutative(s), check_cocommutative(s), check_involutive(s))
        assert got == want


@given(rows=near_groups())
def test_associativity_witness_is_the_least_triple_on_both_routes(rows):
    want = oracles.associativity_failure_oracle(rows)
    for byte_range in byte_ranges(len(rows)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BYTE_RANGE", byte_range)
            assert associativity_witness(rows) == want


def test_identity_beyond_the_byte_range_holds():
    # every pair (x, y) of the wide route composes its rows, about 1.5 s
    assert pentagon_witness(identity_solution(257)) is None


def test_reversed_pentagon_examples():
    assert check_reversed_pentagon(irretractable_solution(1))
    s4 = group_solution(cyclic_group(4))
    assert not oracles.reversed_pentagon_oracle(s4)
    assert not check_reversed_pentagon(s4)
    assert check_reversed_pentagon(identity_solution(3))


def test_reversed_pentagon_matches_oracle():
    for s in small_involutive_panel() + non_solution_panel():
        assert check_reversed_pentagon(s) == oracles.reversed_pentagon_oracle(s)


def test_involutive_examples():
    assert check_involutive(group_solution(cyclic_group(2)))
    assert not oracles.involutive_oracle(group_solution(cyclic_group(4)))
    assert not check_involutive(group_solution(cyclic_group(4)))
    assert check_involutive(identity_solution(4))


def test_flip_tau_s_tau_swaps_pe_and_rpe():
    panel = (
        bijective_finite_order_panel()
        + non_solution_panel()
        + [FLIP2, endo_solution(derive_tables(group_solution(cyclic_group(2)))[0], (0, 0))]
    )
    for s in panel:
        assert check_pentagon(s) == check_reversed_pentagon(flip_conjugate(s))
        assert check_reversed_pentagon(s) == check_pentagon(flip_conjugate(s))


def test_order_of_examples():
    assert order_of(group_solution(cyclic_group(2))) == 2
    assert order_of(identity_solution(3)) == 1
    s = cycle_solution((3, 0, 1, 2), cyclic_group(2))
    assert oracles.order_oracle(s, 8) == 4
    assert order_of(s) == 4


def test_order_of_is_none_exactly_when_not_bijective():
    assert order_of(SolutionTable(2, ((0, 0),) * 4)) is None
    for t in bijective_finite_order_panel() + non_solution_panel():
        assert (order_of(t) is None) == (not check_bijective(t))


def test_order_of_reads_the_cycle_type():
    # an order near 3e14 comes back at once
    assert order_of(prime_cycles_table()) == 304250263527210
    for t in bijective_finite_order_panel() + non_solution_panel():
        m = oracles.order_oracle(t, 64)
        if m is not None:
            assert order_of(t) == m


def test_commutative_examples():
    for s in small_involutive_panel():
        assert check_commutative(s)
    assert check_commutative(identity_solution(2))
    s3 = group_solution(oracles.symmetric_group(3))
    assert not oracles.commutative_oracle(s3)
    assert not check_commutative(s3)


def test_cocommutative_examples():
    assert check_cocommutative(irretractable_solution(1))
    assert check_cocommutative(identity_solution(2))
    mult, _ = derive_tables(group_solution(cyclic_group(2)))
    squash = endo_solution(mult, (0, 0))
    assert not oracles.cocommutative_oracle(squash)
    assert not check_cocommutative(squash)


def test_cocommutative_cycle_family():
    # powers of a single permutation commute, so the whole cycle family
    # is cocommutative regardless of the cycle structure
    s = cycle_solution((3, 0, 1, 2), cyclic_group(1))
    assert oracles.cocommutative_oracle(s)
    assert check_cocommutative(s)


def test_commutative_cocommutative_match_oracle():
    for s in non_solution_panel() + [FLIP2]:
        assert check_commutative(s) == oracles.commutative_oracle(s)
        assert check_cocommutative(s) == oracles.cocommutative_oracle(s)


def test_bijective_examples():
    assert check_bijective(irretractable_solution(1))
    mult, _ = derive_tables(group_solution(cyclic_group(2)))
    assert not check_bijective(endo_solution(mult, (0, 0)))
    assert check_bijective(identity_solution(3))


def test_is_morphism_identity():
    s = irretractable_solution(1)
    assert is_morphism((0, 1), s, s)


def test_is_morphism_between_extensions():
    sigma = SigmaMap(3, 1, ((1, 2, 0), (0, 2, 1)))
    rho = SigmaMap(3, 1, ((2, 0, 1), (1, 0, 2)))
    s_sigma = decomposition_solution(Decomposition(3, 1, 0, sigma))
    s_rho = decomposition_solution(Decomposition(3, 1, 0, rho))
    f = []
    for x in range(3):
        for a in range(2):
            image_x = compose_perms(rho.perms[a], inverse_perm(sigma.perms[a]))[x]
            f.append(image_x * 2 + a)
    assert oracles.morphism_oracle(f, s_sigma, s_rho)
    assert is_morphism(f, s_sigma, s_rho)


def test_is_morphism_rejects_mismatched_tables():
    assert not is_morphism((1, 0), identity_solution(2), irretractable_solution(1))


def test_is_morphism_validates_map():
    with pytest.raises(ValidationError):
        is_morphism((0,), identity_solution(2), identity_solution(2))
    with pytest.raises(ValidationError):
        is_morphism((0, 5), identity_solution(2), identity_solution(2))


def test_product_matches_componentwise_formula():
    prod = product_solution(identity_solution(3), group_solution(cyclic_group(2)))
    assert prod.size == 6
    for x in range(3):
        for g in range(2):
            for y in range(3):
                for h in range(2):
                    got = prod.apply(x * 2 + g, y * 2 + h)
                    assert got == (x * 2 + ((g + h) % 2), y * 2 + h)


def test_product_trivial():
    one = identity_solution(1)
    assert product_solution(one, one) == one


def test_product_classification():
    prod = product_solution(
        irretractable_solution(1), group_solution(xor_group(1))
    )
    triple = classify(prod)
    assert (triple.x_size, triple.a_dim, triple.g_dim) == (1, 1, 1)


def test_product_preserves_axioms():
    panel = [
        identity_solution(2),
        irretractable_solution(1),
        group_solution(xor_group(1)),
        canonical_solution(2, 1, 0),
    ]
    for s1 in panel:
        for s2 in panel:
            prod = product_solution(s1, s2)
            assert check_pentagon(prod)
            assert check_involutive(prod)
    pe_only = [group_solution(cyclic_group(3)), cycle_solution((3, 0, 1, 2), cyclic_group(1))]
    for s1 in pe_only:
        for s2 in pe_only:
            assert check_pentagon(product_solution(s1, s2))


def test_involutive_implies_bijective_and_order_two():
    for s in small_involutive_panel():
        assert check_bijective(s)
        assert order_of(s) in (1, 2)


def test_involutive_implies_commutative_and_cocommutative():
    twelve = [
        canonical_solution(x, a, g)
        for x, a, g in [(12, 0, 0), (6, 1, 0), (6, 0, 1), (3, 2, 0), (3, 0, 2), (3, 1, 1)]
    ]
    for s in small_involutive_panel() + twelve:
        assert check_commutative(s)
        assert check_cocommutative(s)


def test_theta_family_properties_on_involutive_solutions():
    for s in small_involutive_panel():
        n = s.size
        mult, thf = derive_tables(s)
        th = thf
        for x in range(n):
            assert compose_perms(th[x], th[x]) == tuple(range(n))
            for y in range(n):
                assert th[mult[x][y]] == th[x]
                assert th[th[x][y]] == compose_perms(th[x], th[y])
                assert compose_perms(th[x], th[y]) == compose_perms(th[y], th[x])
                # each theta is an automorphism of the multiplication
                for z in range(n):
                    assert th[x][mult[y][z]] == mult[th[x][y]][th[x][z]]


def test_associativity_witness_is_the_first_failing_triple(rng):
    # tables with two-sided identity 0, so group_from_cayley reaches its
    # associativity check; both raisers name the witness
    for _ in range(300):
        n = rng.randrange(1, 5)
        rows = [
            [j if i == 0 else i if j == 0 else rng.randrange(n) for j in range(n)]
            for i in range(n)
        ]
        want = oracles.associativity_failure_oracle(rows)
        assert associativity_witness(rows) == want
        if want is None:
            continue
        triple = "(%d,%d,%d)" % want
        with pytest.raises(ValidationError) as exc:
            group_from_cayley(rows)
        assert str(exc.value) == f"associativity axiom fails at {triple}"
        with pytest.raises(ValidationError) as exc:
            endo_solution(rows, range(n))
        assert str(exc.value) == f"multiplication is not associative at {triple}"


def test_relabel_round_trip(rng):
    for s in small_involutive_panel():
        perm = list(range(s.size))
        rng.shuffle(perm)
        back = relabel(relabel(s, perm), inverse_perm(perm))
        assert back == s


def test_relabel_preserves_axioms(rng):
    for s in small_involutive_panel():
        perm = list(range(s.size))
        rng.shuffle(perm)
        moved = relabel(s, perm)
        assert check_pentagon(moved)
        assert check_involutive(moved)
        assert is_morphism(perm, s, moved)


def test_size_one_everywhere():
    one = identity_solution(1)
    assert check_pentagon(one)
    assert check_reversed_pentagon(one)
    assert check_involutive(one)
    assert check_bijective(one)
    assert check_commutative(one)
    assert check_cocommutative(one)
    assert order_of(one) == 1


def test_table_validation():
    with pytest.raises(ValidationError):
        SolutionTable(0, ())
    with pytest.raises(ValidationError):
        SolutionTable(2, ((0, 0),) * 3)
    with pytest.raises(ValidationError):
        SolutionTable(2, ((0, 0), (0, 2), (1, 0), (1, 1)))
    with pytest.raises(ValidationError, match="multiplication table is not square"):
        endo_solution(((0, 0),), (0,))
    # as for SolutionTable: a non-empty finite semigroup has an idempotent
    with pytest.raises(ValidationError, match="carrier size must be at least 1"):
        endo_solution((), ())
    with pytest.raises(ValidationError):
        Bijection((0, 0))


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValidationError):
        relabel(identity_solution(2), (0, 0))
