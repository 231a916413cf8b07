import gc
import random

import pytest

from pentagon import (
    Bijection,
    BudgetError,
    MultTable,
    SolutionTable,
    ValidationError,
    abelian_structure,
    canonical_solution,
    check_bijective,
    classify,
    cyclic_group,
    decomposition_solution,
    derive_tables,
    ext_solution,
    find_isomorphism,
    group_solution,
    idempotents,
    identity_solution,
    irretractable_solution,
    is_irretractable,
    is_isomorphic_invariant,
    is_morphism,
    left_group_decomposition,
    relabel,
    retract,
    retract_tower,
)
from pentagon import analysis
from pentagon.analysis import is_associative
from pentagon.constructors import Decomposition, SigmaMap

from conftest import identity_with_one_cell_changed, small_involutive_panel
import oracles

LEFT_ZERO_4 = MultTable(4, tuple((i,) * 4 for i in range(4)))
NULL_2 = MultTable(2, ((0, 0), (0, 0)))
NOT_ASSOC = MultTable(3, ((0, 1, 2), (1, 2, 0), (2, 1, 0)))


def test_retract_of_irretractable_is_itself():
    t = irretractable_solution(1)
    res = retract(t)
    assert res.quotient == t
    assert res.class_sizes == (1, 1)


def test_retract_of_identity_collapses():
    res = retract(identity_solution(5))
    assert res.quotient.size == 1
    assert res.class_of == (0,) * 5
    assert res.class_sizes == (5,)


def test_retract_of_extension_is_bitmask_solution():
    res = retract(ext_solution(Decomposition(3, 1, 0)))
    assert res.quotient == irretractable_solution(1)


def test_retract_class_numbering_by_least_member():
    res = retract(canonical_solution(2, 1, 0))
    assert res.class_of[0] == 0
    assert res.class_of == (0, 1, 0, 1)


def test_retract_rejects_non_involutive():
    with pytest.raises(ValidationError):
        retract(group_solution(cyclic_group(4)))


def test_retract_rejects_non_solution():
    from pentagon import SolutionTable

    flip = SolutionTable(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    with pytest.raises(ValidationError):
        retract(flip)


def test_retract_classes_have_equal_sizes():
    for s in small_involutive_panel():
        res = retract(s)
        assert len(set(res.class_sizes)) == 1
        assert sum(res.class_sizes) == s.size


def _theta_table(mul, theta):
    """The table s(x, y) = (x·y, theta_x(y))."""
    n = len(mul)
    return SolutionTable(
        n, tuple((mul[x][y], theta[x][y]) for x in range(n) for y in range(n))
    )


def test_retract_checks_that_its_quotient_is_well_defined(monkeypatch):
    # no solution fails these checks, so the solution check is patched out
    monkeypatch.setattr(analysis, "_require_involutive_solution", lambda s, op: None)
    left = ((0, 0, 0), (1, 1, 1), (2, 2, 2))  # x·y = x
    cases = [
        (((1, 0), (1, 1)), ((0, 1), (1, 0)), "quotient multiplication is not left zero"),
        (left, ((0, 1, 2), (0, 1, 2), (2, 0, 1)), "theta does not descend to the quotient"),
        (left, ((0, 1, 2), (0, 1, 2), (1, 0, 2)), "retract classes have unequal sizes"),
    ]
    for mul, theta, message in cases:
        with pytest.raises(ValidationError, match=message):
            retract(_theta_table(mul, theta))


def _with_idempotents(n, count):
    """A table on n elements whose first coordinate fixes exactly 0..count-1
    on the diagonal."""
    return SolutionTable(
        n, tuple((x if x < count else 0, y) for x in range(n) for y in range(n))
    )


def test_classify_checks_the_sizes_it_reads(monkeypatch):
    # a patched retract of the given size stands in for the real one; the
    # oracle's four checks decide each verdict on the grid
    def patch_retract(a_size):
        quotient = identity_solution(a_size)
        monkeypatch.setattr(
            analysis, "retract", lambda s: analysis.RetractResult(quotient, (), ())
        )

    for n in range(1, 13):
        for a_size in range(1, n + 2):
            patch_retract(a_size)
            for count in range(1, n + 1):
                s = _with_idempotents(n, count)
                shape = oracles.classification_oracle(n, a_size, count)
                if shape is None:
                    with pytest.raises(ValidationError):
                        classify(s)
                else:
                    assert classify(s) == Decomposition(*shape), (n, a_size, count)

    constant = ((0, 0, 0),) * 3  # one idempotent among three elements
    two_idempotents = ((0, 0, 0), (1, 1, 1), (0, 0, 0))
    same = ((0, 1, 2),) * 3
    cases = [
        (identity_solution(3), 3, r"shape \(1, 1, 0\) has size 2, not 3"),
        (_theta_table(two_idempotents, same), 1, r"shape \(2, 0, 0\) has size 2, not 3"),
        (_theta_table(constant, same), 1, r"shape \(1, 0, 1\) has size 2, not 3"),
        (identity_solution(1), 2, "x_size must be at least 1"),
    ]
    for s, a_size, message in cases:
        patch_retract(a_size)
        with pytest.raises(ValidationError, match=message):
            classify(s)


def test_is_irretractable():
    assert is_irretractable(irretractable_solution(2))
    assert not is_irretractable(identity_solution(2))
    assert not is_irretractable(canonical_solution(1, 0, 1))


def test_retract_tower_examples():
    assert retract_tower(ext_solution(Decomposition(2, 1, 0))) == [4, 2, 2]
    assert retract_tower(irretractable_solution(1)) == [2, 2]
    assert retract_tower(canonical_solution(3, 1, 1)) == [12, 2, 2]


def test_retract_stabilizes_in_one_step():
    for s in small_involutive_panel():
        tower = retract_tower(s)
        assert len(tower) <= 3
        assert is_irretractable(retract(s).quotient)


def test_abelian_structure_examples():
    g = abelian_structure(irretractable_solution(1))
    assert g.cayley == ((0, 1), (1, 0))
    assert abelian_structure(irretractable_solution(0)).size == 1
    g2 = abelian_structure(irretractable_solution(2))
    assert g2.size == 4
    assert g2.exponent == 2


def test_abelian_structure_reconstructs_the_solution():
    for r in (0, 1, 2, 3):
        t = irretractable_solution(r)
        g = abelian_structure(t)
        assert g.identity == 0
        n = t.size
        rebuilt = [
            (x, g.cayley[x][y]) for x in range(n) for y in range(n)
        ]
        assert tuple(rebuilt) == t.entries


def test_abelian_structure_rejects_retractable():
    with pytest.raises(ValidationError):
        abelian_structure(identity_solution(2))


def test_classify_splits_the_table_once(monkeypatch):
    # the idempotents come from the diagonal, not from a second split
    calls = []
    real = analysis.derive_tables

    def spy(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(analysis, "derive_tables", spy)
    c = classify(canonical_solution(3, 1, 1))
    assert (c.x_size, c.a_dim, c.g_dim) == (3, 1, 1)
    assert len(calls) == 1


def test_analysis_builds_no_mult_table(monkeypatch):
    # derive_tables hands out plain rows: SolutionTable has checked them
    checked = []
    real = MultTable.__post_init__

    def spy(self):
        checked.append(self.size)
        real(self)

    monkeypatch.setattr(MultTable, "__post_init__", spy)
    s = canonical_solution(3, 1, 1)
    classify(s)
    retract(s)
    t = canonical_solution(2, 1, 1)
    assert find_isomorphism(t, relabel(t, (7, 6, 5, 4, 3, 2, 1, 0))) is not None
    assert checked == []
    MultTable(1, ((0,),))  # a caller's table is still checked
    assert checked == [1]


def test_left_group_decomposition_examples():
    mult, _ = derive_tables(canonical_solution(3, 1, 1))
    dec = left_group_decomposition(MultTable(12, mult))
    assert dec is not None
    assert len(dec.idempotents) == 6
    assert dec.group_part.size == 2
    assert dec.group_part.exponent == 2

    dec = left_group_decomposition(LEFT_ZERO_4)
    assert len(dec.idempotents) == 4
    assert dec.group_part.size == 1

    c3 = MultTable(3, tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)))
    dec = left_group_decomposition(c3)
    assert dec.idempotents == (0,)
    assert dec.group_part.size == 3
    assert dec.group_part.exponent == 3


def test_left_group_decomposition_counts_multiply():
    for s in small_involutive_panel():
        mult, _ = derive_tables(s)
        dec = left_group_decomposition(MultTable(s.size, mult))
        assert dec is not None
        assert len(dec.idempotents) * dec.group_part.size == s.size


def test_left_group_decomposition_negative():
    assert left_group_decomposition(NULL_2) is None
    with pytest.raises(ValidationError):
        left_group_decomposition(NOT_ASSOC)


def test_check_simple():
    assert oracles.check_simple(LEFT_ZERO_4)
    c2 = MultTable(2, ((0, 1), (1, 0)))
    assert oracles.check_simple(c2)
    assert not oracles.check_simple(NULL_2)
    with pytest.raises(ValidationError):
        oracles.check_simple(NOT_ASSOC)


def test_simple_for_bijective_finite_order_solutions():
    from conftest import bijective_finite_order_panel
    from pentagon import enumerate_pruned, order_of

    for s in bijective_finite_order_panel():
        mult, _ = derive_tables(s)
        assert oracles.check_simple(MultTable(s.size, mult))
    for n in (1, 2, 3, 4):
        for s in enumerate_pruned(n):
            assert order_of(s) is not None
            mult, _ = derive_tables(s)
            assert oracles.check_simple(MultTable(s.size, mult))


def test_classify_examples():
    t = classify(canonical_solution(3, 1, 1))
    assert (t.x_size, t.a_dim, t.g_dim) == (3, 1, 1)
    for n in (1, 2, 5):
        t = classify(identity_solution(n))
        assert (t.x_size, t.a_dim, t.g_dim) == (n, 0, 0)
    t = classify(canonical_solution(1, 0, 2))
    assert (t.x_size, t.a_dim, t.g_dim) == (1, 0, 2)


def test_classify_size_factorization():
    for s in small_involutive_panel():
        t = classify(s)
        assert t.x_size << (t.a_dim + t.g_dim) == s.size


def test_classify_rejects_non_involutive():
    with pytest.raises(ValidationError):
        classify(group_solution(cyclic_group(4)))


def test_is_isomorphic_invariant():
    sigma = SigmaMap(2, 1, ((0, 1), (1, 0)))
    twisted = ext_solution(Decomposition(2, 1, 0, sigma))
    assert is_isomorphic_invariant(twisted, canonical_solution(2, 1, 0))
    assert not is_isomorphic_invariant(
        irretractable_solution(1), canonical_solution(1, 0, 1)
    )
    s = canonical_solution(2, 1, 0)
    assert is_isomorphic_invariant(s, s)


def test_find_isomorphism_on_extension_pair():
    sigma = SigmaMap(2, 1, ((0, 1), (1, 0)))
    twisted = ext_solution(Decomposition(2, 1, 0, sigma))
    plain = canonical_solution(2, 1, 0)
    f = find_isomorphism(twisted, plain)
    assert f is not None
    assert is_morphism(f, twisted, plain)
    assert oracles.brute_isomorphism(twisted, plain) is not None


def test_find_isomorphism_absent():
    assert find_isomorphism(identity_solution(2), group_solution(cyclic_group(2))) is None
    assert oracles.brute_isomorphism(
        identity_solution(2), group_solution(cyclic_group(2))
    ) is None


def test_find_isomorphism_self_is_identity():
    s = canonical_solution(2, 1, 0)
    f = find_isomorphism(s, s)
    assert f.images == (0, 1, 2, 3)
    assert is_morphism(f, s, s)


def test_find_isomorphism_errors(monkeypatch):
    with pytest.raises(ValidationError, match="size"):
        find_isomorphism(identity_solution(2), identity_solution(3))
    # equal signatures, no isomorphism: the search must try every map
    changed = identity_with_one_cell_changed(12)
    monkeypatch.setattr(analysis, "_ISO_WORK_BUDGET", 4096)
    with pytest.raises(BudgetError, match="work bound"):
        find_isomorphism(identity_solution(12), changed)


def test_find_isomorphism_leaves_no_garbage():
    # the search state is freed when the call returns, without the cyclic gc
    s = canonical_solution(4, 2, 2)
    t = relabel(s, list(range(63, -1, -1)))
    gc.collect()
    gc.disable()
    try:
        assert find_isomorphism(t, s) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_element_signatures_compute_each_theta_row_shape_once(monkeypatch):
    # on a solution theta_x depends only on x's A-coordinate, so a shape
    # is computed once per distinct row; the signatures are unchanged
    real = analysis.cycle_type

    def per_row(s):
        mul, th = derive_tables(s)
        n = s.size
        sigs = []
        for x in range(n):
            row = th[x]
            if sorted(row) == list(range(n)):
                shape = ("perm", real(row))
            else:
                shape = ("map", tuple(sorted(row.count(v) for v in set(row))))
            sigs.append((mul[x][x] == x, shape))
        return sigs

    calls = []

    def spy(row):
        calls.append(row)
        return real(row)

    monkeypatch.setattr(analysis, "cycle_type", spy)
    rng = random.Random(422)
    base = canonical_solution(4, 2, 2)
    for _ in range(3):
        s = relabel(base, rng.sample(range(64), 64))
        calls.clear()
        assert analysis._element_signatures(s) == per_row(s)
        assert len(calls) == 4
    # not a solution: repeated and distinct rows, bijective or not
    rows = ((0, 0, 2, 3), (1, 0, 3, 2), (1, 0, 3, 2), (3, 3, 3, 3))
    odd = SolutionTable(4, tuple((x, y) for x in range(4) for y in rows[x]))
    calls.clear()
    assert analysis._element_signatures(odd) == per_row(odd)
    assert len(calls) == 1


def test_find_isomorphism_maps_every_shape_to_its_canonical_solution():
    rng = random.Random(16)
    shapes = [
        (x, a, g)
        for a in range(7)
        for g in range(7 - a)
        for x in range(1, (64 >> (a + g)) + 1)
    ]
    last_of_size = {}
    for x, a, g in shapes:
        sigma = SigmaMap(
            x, a, tuple(tuple(rng.sample(range(x), x)) for _ in range(1 << a))
        )
        twisted = decomposition_solution(Decomposition(x, a, g, sigma))
        n = twisted.size
        s = relabel(twisted, rng.sample(range(n), n))
        target = canonical_solution(x, a, g)
        f = find_isomorphism(s, target)
        assert f is not None and is_morphism(f, s, target), (x, a, g)
        if n in last_of_size:
            assert find_isomorphism(s, last_of_size[n]) is None, (x, a, g)
        last_of_size[n] = target


def test_classify_gives_the_shape_that_rebuilds_the_solution():
    # the classification theorem as a round trip: a twisted, relabelled
    # solution is isomorphic to the untwisted one built from its shape
    rng = random.Random(32)
    shapes = [
        (x, a, g)
        for a in range(6)
        for g in range(6 - a)
        for x in range(1, (32 >> (a + g)) + 1)
    ]
    for x, a, g in shapes:
        sigma = SigmaMap(
            x, a, tuple(tuple(rng.sample(range(x), x)) for _ in range(1 << a))
        )
        twisted = decomposition_solution(Decomposition(x, a, g, sigma))
        n = twisted.size
        s = relabel(twisted, rng.sample(range(n), n))
        shape = classify(s)
        assert shape == Decomposition(x, a, g), (x, a, g)
        rebuilt = decomposition_solution(shape)
        f = find_isomorphism(s, rebuilt)
        assert f is not None and is_morphism(f, s, rebuilt), (x, a, g)


def test_find_isomorphism_maps_a_relabelled_solution_of_size_1024():
    # no image of this shape is forced, so the search is 1024 decisions
    # deep, past Python's default recursion limit
    rng = random.Random(1024)
    sigma = SigmaMap(1024, 0, (tuple(rng.sample(range(1024), 1024)),))
    twisted = decomposition_solution(Decomposition(1024, 0, 0, sigma))
    s = relabel(twisted, rng.sample(range(1024), 1024))
    target = canonical_solution(1024, 0, 0)
    f = find_isomorphism(s, target)
    assert f is not None and is_morphism(f, s, target)


def test_find_isomorphism_matches_brute_force(rng):
    from pentagon import enumerate_pruned

    tables = enumerate_pruned(2) + enumerate_pruned(3)
    for s in tables:
        for t in tables:
            if s.size != t.size:
                continue
            ours = find_isomorphism(s, t)
            brute = oracles.brute_isomorphism(s, t)
            assert (ours is None) == (brute is None)


def test_idempotents_are_squares_and_right_identities():
    for s in small_involutive_panel():
        mult, _ = derive_tables(s)
        idem = set(idempotents(MultTable(s.size, mult)))
        squares = {mult[x][x] for x in range(s.size)}
        assert idem == squares
        for e in idem:
            assert all(mult[x][e] == x for x in range(s.size))


def test_theta_on_left_zero_carrier_is_identity_or_fixed_point_free(rng):
    shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (1, 3)]
    for x_size, a_dim in shapes:
        perms = []
        for _ in range(1 << a_dim):
            p = list(range(x_size))
            rng.shuffle(p)
            perms.append(tuple(p))
        s = ext_solution(Decomposition(x_size, a_dim, 0, SigmaMap(x_size, a_dim, tuple(perms))))
        assert check_bijective(s)
        _, thf = derive_tables(s)
        n = s.size
        identity = tuple(range(n))
        for x in range(n):
            row = thf[x]
            assert sorted(row) == list(range(n))
            assert row == identity or all(row[y] != y for y in range(n))


def test_is_associative():
    assert is_associative(LEFT_ZERO_4)
    assert not is_associative(NOT_ASSOC)


def test_bijection_inverse():
    b = Bijection((2, 0, 1))
    assert b.inverse().images == (1, 2, 0)
    assert b.apply(0) == 2
