import gc
import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from pentagon import (
    Bijection,
    BudgetError,
    MultTable,
    SolutionTable,
    ValidationError,
    canonical_solution,
    check_bijective,
    check_involutive,
    check_pentagon,
    classify,
    count_up_to_iso,
    cycle_solution,
    cyclic_group,
    decompose,
    decomposition_solution,
    derive_tables,
    ext_solution,
    find_isomorphism,
    group_solution,
    identity_solution,
    irretractable_solution,
    is_isomorphic_invariant,
    is_morphism,
    product_solution,
    relabel,
    retract,
    retract_tower,
)
from pentagon import analysis, core
from pentagon.cli import run
from pentagon.constructors import Decomposition, SigmaMap

from conftest import (
    identity_with_one_cell_changed,
    near_solutions,
    small_involutive_panel,
)
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


def test_retract_checks_that_its_quotient_is_well_defined():
    # no solution fails these checks, and the oracle takes the solution
    # hypothesis from its caller, so these tables reach them
    left = ((0, 0, 0), (1, 1, 1), (2, 2, 2))  # x·y = x
    cases = [
        (((1, 0), (1, 1)), ((0, 1), (1, 0)), "quotient multiplication is not left zero"),
        (left, ((0, 1, 2), (0, 1, 2), (2, 0, 1)), "theta does not descend to the quotient"),
        (left, ((0, 1, 2), (0, 1, 2), (1, 0, 2)), "retract classes have unequal sizes"),
    ]
    for mul, theta, message in cases:
        with pytest.raises(ValidationError, match=message):
            oracles.retract_oracle(_theta_table(mul, theta))


def test_classify_without_a_certificate_contradicts_the_theorem(monkeypatch, capsys):
    # an involutive solution that decompose cannot certify is a
    # counterexample to the classification theorem: every route raises
    s = canonical_solution(3, 1, 1)
    assert check_involutive(s) and check_pentagon(s)
    monkeypatch.setattr(analysis, "decompose", lambda s: None)
    for op in (classify, retract):
        with pytest.raises(ValidationError, match="classification theorem"):
            op(s)
    assert run(["classify", "canonical(3,1,1)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: classify:") and "classification theorem" in err
    with pytest.raises(ValidationError, match="classification theorem"):
        count_up_to_iso(4)


def test_classify_and_retract_run_decompose_once(monkeypatch):
    # the certificate that proves the hypothesis is the one classify reads
    calls = []
    real = analysis.decompose

    def spy(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(analysis, "decompose", spy)
    for s in (
        cycle_solution((3, 0, 1, 2), cyclic_group(2)),
        group_solution(cyclic_group(4)),
        canonical_solution(3, 1, 1),
    ):
        for op in (classify, retract):
            calls.clear()
            if check_involutive(s):
                op(s)
            else:
                with pytest.raises(ValidationError, match="requires an involutive"):
                    op(s)
            assert calls == [s], (op.__name__, s.size)


def test_is_irretractable():
    assert oracles.is_irretractable(irretractable_solution(2))
    assert not oracles.is_irretractable(identity_solution(2))
    assert not oracles.is_irretractable(canonical_solution(1, 0, 1))


def test_retract_tower_examples():
    assert retract_tower(ext_solution(Decomposition(2, 1, 0))) == [4, 2, 2]
    assert retract_tower(irretractable_solution(1)) == [2, 2]
    assert retract_tower(canonical_solution(3, 1, 1)) == [12, 2, 2]


def test_retract_stabilizes_in_one_step():
    for s in small_involutive_panel():
        tower = retract_tower(s)
        assert len(tower) <= 3
        assert oracles.is_irretractable(retract(s).quotient)
        # the tower read off the shape is the theta-row quotient iterated
        sizes, cur = [s.size], s
        while True:
            cur = oracles.retract_oracle(cur).quotient
            sizes.append(cur.size)
            if sizes[-1] == sizes[-2]:
                break
        assert tower == sizes, s.size


def test_abelian_structure_examples():
    g = oracles.abelian_structure(irretractable_solution(1))
    assert g.cayley == ((0, 1), (1, 0))
    assert oracles.abelian_structure(irretractable_solution(0)).size == 1
    g2 = oracles.abelian_structure(irretractable_solution(2))
    assert g2.size == 4
    assert g2.exponent == 2


def test_abelian_structure_reconstructs_the_solution():
    for r in (0, 1, 2, 3):
        t = irretractable_solution(r)
        g = oracles.abelian_structure(t)
        assert g.identity == 0
        n = t.size
        rebuilt = [
            (x, g.cayley[x][y]) for x in range(n) for y in range(n)
        ]
        assert tuple(rebuilt) == t.entries


def test_abelian_structure_rejects_retractable():
    with pytest.raises(ValidationError):
        oracles.abelian_structure(identity_solution(2))


def test_classify_splits_the_table_once(monkeypatch):
    # the idempotents come from the diagonal, and the retract's classes
    # from the certificate, not from a second split
    calls = []
    real = analysis.derive_tables

    def spy(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(analysis, "derive_tables", spy)
    s = canonical_solution(3, 1, 1)
    c = classify(s)
    assert (c.x_size, c.a_dim, c.g_dim) == (3, 1, 1)
    assert calls == [s]
    for op, answer in (
        (lambda t: retract(t).quotient, irretractable_solution(1)),
        (retract_tower, [12, 2, 2]),
    ):
        calls.clear()
        assert op(s) == answer
        assert calls == [s]


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
    dec = oracles.left_group_decomposition(MultTable(12, mult))
    assert dec is not None
    assert len(dec.idempotents) == 6
    assert dec.group_part.size == 2
    assert dec.group_part.exponent == 2

    dec = oracles.left_group_decomposition(LEFT_ZERO_4)
    assert len(dec.idempotents) == 4
    assert dec.group_part.size == 1

    c3 = MultTable(3, tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)))
    dec = oracles.left_group_decomposition(c3)
    assert dec.idempotents == (0,)
    assert dec.group_part.size == 3
    assert dec.group_part.exponent == 3


def test_left_group_decomposition_counts_multiply():
    for s in small_involutive_panel():
        mult, _ = derive_tables(s)
        dec = oracles.left_group_decomposition(MultTable(s.size, mult))
        assert dec is not None
        assert len(dec.idempotents) * dec.group_part.size == s.size


def test_left_group_decomposition_negative():
    assert oracles.left_group_decomposition(NULL_2) is None
    with pytest.raises(ValidationError):
        oracles.left_group_decomposition(NOT_ASSOC)


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


def _signatures_per_row(s):
    """The element signatures, each row's shape computed afresh."""
    mul, th = derive_tables(s)
    n = s.size
    sigs = []
    for x in range(n):
        row = th[x]
        if sorted(row) == list(range(n)):
            shape = ("perm", core.cycle_type(row))
        else:
            shape = ("map", tuple(sorted(row.count(v) for v in set(row))))
        sigs.append((mul[x][x] == x, shape))
    return sigs


def test_element_signatures_compute_each_theta_row_shape_once(monkeypatch):
    # on a solution theta_x depends only on x's A-coordinate, so a shape
    # is computed once per distinct row; the signatures are unchanged
    real = analysis.cycle_type
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
        assert analysis._element_signatures(s) == _signatures_per_row(s)
        assert len(calls) == 4
    # not a solution: repeated and distinct rows, bijective or not
    rows = ((0, 0, 2, 3), (1, 0, 3, 2), (1, 0, 3, 2), (3, 3, 3, 3))
    odd = SolutionTable(4, tuple((x, y) for x in range(4) for y in rows[x]))
    calls.clear()
    assert analysis._element_signatures(odd) == _signatures_per_row(odd)
    assert len(calls) == 1


def test_element_signatures_count_each_theta_row_in_one_pass(monkeypatch):
    # a non-bijective theta row's fibre sizes come from one Counter of the
    # row, not from one row.count per value, which is cubic in n
    rows = []

    def spy(row):
        rows.append(row)
        return Counter(row)

    monkeypatch.setattr(analysis, "Counter", spy)
    rng = random.Random(38)
    for n in (3, 5, 9, 16):
        for s in (oracles.random_table(n, rng), oracles.random_involution_table(n, rng)):
            th = derive_tables(s)[1]
            rows.clear()
            assert analysis._element_signatures(s) == _signatures_per_row(s)
            maps = [row for row in dict.fromkeys(th) if sorted(row) != list(range(n))]
            assert maps and rows == maps


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


def _twisted_relabelled(x, a, g, rng) -> SolutionTable:
    """decomposition_solution of shape (x, a, g) under a random sigma,
    relabelled by a random permutation."""
    sigma = SigmaMap(
        x, a, tuple(tuple(rng.sample(range(x), x)) for _ in range(1 << a))
    )
    twisted = decomposition_solution(Decomposition(x, a, g, sigma))
    n = twisted.size
    return relabel(twisted, rng.sample(range(n), n))


TWISTED_SHAPES_UP_TO_64 = [
    (x, a, g)
    for a in range(7)
    for g in range(7 - a)
    for x in range(1, (64 >> (a + g)) + 1)
]


@st.composite
def twisted_solutions(draw):
    """A sigma-twisted relabelled solution of a shape with |S| <= 64."""
    shape = draw(st.sampled_from(TWISTED_SHAPES_UP_TO_64))
    return _twisted_relabelled(*shape, random.Random(draw(st.integers(0, 2**32))))


def _linear_map(a, g):
    """((a,g),(b,h)) -> ((a, g^h), (a^b, h)) on V = F2^(a+g), the g bits
    low: F2-linear on V^2, since each output is an xor of masked inputs."""
    gm, am = (1 << g) - 1, ((1 << a) - 1) << g
    return lambda p, q: (p ^ (q & gm), q ^ (p & am))


def test_canonical_solution_is_the_linear_map_on_every_expression_carrier():
    # a + g <= 10 covers every carrier of at most 2^20 cells, the
    # expression bound.  A row is compared whole, as an int of 16-bit
    # lanes in which xor with v * ones is xor with v in every lane; the
    # collector is off while the tables' million tuples are alive
    def lanes(row):
        return int.from_bytes(array("H", row).tobytes(), "little")

    gc.disable()
    try:
        for k in range(11):
            n = 1 << k
            ones, ident = lanes([1] * n), lanes(range(n))
            for a in range(k + 1):
                g = k - a
                gm, am = (1 << g) - 1, ((1 << a) - 1) << g
                M, T = derive_tables(canonical_solution(1, a, g))
                low = lanes([q & gm for q in range(n)])
                assert all(
                    lanes(M[p]) == low ^ p * ones
                    and lanes(T[p]) == ident ^ (p & am) * ones
                    for p in range(n)
                ), (a, g)
    finally:
        gc.enable()
    # the map the unit-vector test checks is the one compared above
    s = _linear_map(2, 1)
    assert [s(p, q) for p in range(8) for q in range(8)] == list(
        canonical_solution(1, 2, 1).entries
    )


def test_the_linear_map_satisfies_both_laws_on_unit_vectors():
    # both sides of each law are F2-linear, so they agree everywhere when
    # they agree on the 3(a+g) unit vectors of V^3 and 2(a+g) of V^2
    for k in range(11):
        units = [1 << i for i in range(k)]
        for a in range(k + 1):
            s = _linear_map(a, k - a)
            triples = [(u, 0, 0) for u in units] + [(0, u, 0) for u in units]
            for x, y, z in triples + [(0, 0, u) for u in units]:
                p, q = s(x, y)
                c, d = s(p, z)
                e, f = s(q, d)
                u, v = s(y, z)
                assert (c, e, f) == s(x, u) + (v,), (a, x, y, z)
            for x, y in [(u, 0) for u in units] + [(0, u) for u in units]:
                assert s(*s(x, y)) == (x, y)


def test_canonical_solution_is_identity_times_its_one_point_factor():
    # the product's row-major pairing is the (x, a, g) indexing itself
    for x in range(1, 5):
        for k in range(5):
            for a in range(k + 1):
                one = canonical_solution(1, a, k - a)
                want = product_solution(identity_solution(x), one)
                assert canonical_solution(x, a, k - a) == want, (x, a, k - a)


def test_decompose_certifies_exactly_the_involutive_solutions():
    # against the n^3 checks on random tables of sizes 1..6: pair
    # involutions, arbitrary tables, twisted relabelled solutions, and
    # those solutions with their pair map conjugated by a transposition,
    # which stays an involution
    rng = random.Random(3000)
    shapes = {
        n: [(n >> (a + g), a, g) for a in range(3) for g in range(3)
            if n % (1 << (a + g)) == 0]
        for n in range(1, 7)
    }
    seen = Counter()
    for _ in range(3000):
        n, kind = rng.randrange(1, 7), rng.randrange(4)
        if kind == 0:
            s = oracles.random_involution_table(n, rng)
        elif kind == 1:
            s = oracles.random_table(n, rng)
        else:
            s = _twisted_relabelled(*rng.choice(shapes[n]), rng)
        if kind == 3:
            u, v = rng.sample(range(n * n), 2) if n > 1 else (0, 0)
            swap = {u: v, v: u}
            flat = s.flat()
            cells = [flat[swap.get(w, w)] for w in range(n * n)]
            s = SolutionTable(n, tuple(divmod(swap.get(c, c), n) for c in cells))
        valid = check_involutive(s) and check_pentagon(s)
        certificate = decompose(s)
        assert (certificate is not None) == valid, s
        if certificate is not None:
            shape, f = certificate
            assert is_morphism(f, s, decomposition_solution(shape))
        seen[kind, valid] += 1
    # the solutions are all certified, and the other kinds give both
    # verdicts, arbitrary tables mostly the negative one
    assert seen[2, False] == 0
    assert all(seen[kind, v] >= 20 for kind in (0, 3) for v in (True, False)), seen
    assert seen[1, False] >= 500, seen


def test_decompose_certifies_every_twisted_relabelled_shape_up_to_64():
    rng = random.Random(247)
    assert len(TWISTED_SHAPES_UP_TO_64) == 247
    for x, a, g in TWISTED_SHAPES_UP_TO_64:
        s = _twisted_relabelled(x, a, g, rng)
        shape, f = decompose(s)
        assert shape == Decomposition(x, a, g)
        assert is_morphism(f, s, canonical_solution(x, a, g)), (x, a, g)
        # the paper's route to the parts: |A| is the retract size and |G|
        # the order of the left group's group part
        expected = oracles.retract_oracle(s)
        assert retract(s) == expected, (x, a, g)
        assert expected.quotient.size == 1 << a
        mul, _ = derive_tables(s)
        lg = oracles.left_group_decomposition(MultTable(s.size, mul))
        assert lg.group_part.size == 1 << g


def decompose_with_route_spy(s, byte_range):
    """`decompose(s)` under a given byte range, and per `_compose_rows`
    call whether its rows were the wide route's tuples."""
    routes = []
    compose_rows = core._compose_rows

    def spy(rows):
        composed = compose_rows(rows)
        routes.append(type(composed[0][0]) is tuple)
        return composed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BYTE_RANGE", byte_range)
        mp.setattr(analysis, "_compose_rows", spy)
        return decompose(s), routes


@given(s=st.one_of(near_solutions(), twisted_solutions()))
def test_decompose_gives_one_certificate_on_both_routes(s):
    # a byte range of 1 puts every carrier above one element on the wide
    # route; a solution reaches the row compares and so composes rows
    want = decompose(s)
    for byte_range in (1, 256):
        got, routes = decompose_with_route_spy(s, byte_range)
        assert got == want
        assert set(routes) <= {s.size > byte_range}
        if check_involutive(s) and check_pentagon(s):
            assert want is not None and routes


def test_decompose_stops_a_span_that_outgrows_the_carrier():
    # constant multiplication 0, theta_0 the identity, every other theta
    # row a random permutation: the greedy basis of the theta rows would
    # double 63 times if the span were not bounded by the carrier
    rng = random.Random(63)
    rows = [tuple(range(64))] + [tuple(rng.sample(range(64), 64)) for _ in range(63)]
    assert decompose(SolutionTable(64, tuple((0, v) for row in rows for v in row))) is None


def test_non_involutive_solutions_have_no_certificate_and_keep_their_errors():
    for s in (
        group_solution(cyclic_group(3)),  # exponent 3
        group_solution(cyclic_group(4)),
        cycle_solution((3, 0, 1, 2), cyclic_group(2)),  # order 4
    ):
        assert check_pentagon(s) and not check_involutive(s)
        assert decompose(s) is None
        for op in (classify, retract):
            with pytest.raises(ValidationError, match="requires an involutive table"):
                op(s)


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
        idem = set(oracles.idempotents(MultTable(s.size, mult)))
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
    assert oracles.is_associative(LEFT_ZERO_4)
    assert not oracles.is_associative(NOT_ASSOC)


def test_bijection_inverse():
    b = Bijection((2, 0, 1))
    assert b.inverse().images == (1, 2, 0)
    assert b.apply(0) == 2
