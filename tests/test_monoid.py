import pytest
from hypothesis import given, strategies as st

from pentagon import (
    BudgetError,
    GrowthSeries,
    ValidationError,
    canonical_solution,
    cyclic_group,
    enumerate_pruned,
    estimate_growth_degree,
    group_solution,
    growth_series,
    identity_solution,
    irretractable_solution,
    normal_forms,
    presentation_of,
    rank_expected,
    relabel,
    series_from_presentation,
)
from pentagon.monoid import MAX_GROWTH_LENGTH, MonoidPresentation

import oracles
from conftest import small_involutive_panel


def test_presentation_of_bitmask_solution():
    pres = presentation_of(irretractable_solution(1))
    nontrivial = {r for r in pres.relations if r[0] != r[1]}
    assert nontrivial == {
        ((0, 1), (1, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
    }


def test_presentation_of_identity_solution():
    pres = presentation_of(identity_solution(2))
    nontrivial = {r for r in pres.relations if r[0] != r[1]}
    # theta is trivial and multiplication is left zero, so x.y = y.x
    assert nontrivial == {((0, 1), (1, 0)), ((1, 0), (0, 1))}


def test_presentation_matches_oracle_on_panel():
    for s in small_involutive_panel():
        assert presentation_of(s).relations == oracles.presentation_oracle(s)


@given(size=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_presentation_matches_oracle_on_random_tables(size, rng):
    s = oracles.random_table(size, rng)
    assert presentation_of(s).relations == oracles.presentation_oracle(s)


def test_presentation_of_singleton():
    pres = presentation_of(identity_solution(1))
    assert all(lhs == rhs for lhs, rhs in pres.relations)


def test_growth_series_examples():
    assert growth_series(irretractable_solution(1), 5).counts == (1, 2, 2, 2, 2, 2)
    assert growth_series(identity_solution(2), 4).counts == (1, 2, 3, 4, 5)
    assert growth_series(identity_solution(1), 3).counts == (1, 1, 1, 1)


def test_growth_series_free_abelian_oracle():
    # identity solutions present free abelian monoids; class counts must
    # match the multiset count C(length + n - 1, n - 1)
    from math import comb

    for n in (1, 2, 3):
        counts = growth_series(identity_solution(n), 5).counts
        for ell, c in enumerate(counts):
            assert c == comb(ell + n - 1, n - 1)


def test_growth_engines_agree():
    for s in small_involutive_panel():
        if s.size > 4:
            continue
        assert growth_series(s, 5).counts == oracles.growth_oracle(s, 5)
    big = canonical_solution(3, 1, 1)
    assert growth_series(big, 3).counts == oracles.growth_oracle(big, 3)


@pytest.mark.parametrize(
    "triple, counts",
    [
        ((2, 2, 2), (1, 32, 258, 264, 335, 402, 469)),
        ((8, 0, 1), (1, 16, 72, 240, 660, 1584, 3432)),
        ((3, 1, 1), (1, 12, 36, 50, 75, 105, 140, 180, 225, 275, 330)),
    ],
)
def test_growth_pinned_on_benchmark_inputs(triple, counts):
    # fixed inputs that catch a broken find or link in the union stars
    # that join each block of pairs per class, without hypothesis's help;
    # the dense oracle reaches length 3
    s = canonical_solution(*triple)
    assert growth_series(s, len(counts) - 1).counts == counts
    assert growth_series(s, 3).counts == oracles.growth_oracle(s, 3) == counts[:4]
    assert normal_forms(s, 3) == oracles.normal_forms_oracle(s, 3)


def test_growth_tail_on_every_shape_up_to_size_16(rng):
    # the conjectured tail c(ell) = N(a+g) * C(ell+x-1, x-1) from length
    # a+g+1 on, on each canonical shape and one relabelling of it
    shapes = [
        (x, a, g)
        for x in range(1, 17)
        for a in range(5)
        for g in range(5)
        if x << (a + g) <= 16
    ]
    assert len(shapes) == 57
    for x, a, g in shapes:
        s = canonical_solution(x, a, g)
        perm = list(range(s.size))
        rng.shuffle(perm)
        lengths = range(a + g + 1, a + g + 4)
        want = tuple(oracles.growth_tail_oracle(x, a, g, ell) for ell in lengths)
        for t in (s, relabel(s, perm)):
            assert growth_series(t, lengths[-1]).counts[lengths[0]:] == want


def test_union_star_lowers_its_running_root():
    # the blocks are 00 ~ 02 and 10 ~ 20 ~ 21.  At length 3 after the
    # letter 0, node c * 3 + x is class c of length 2, then letter x: the
    # block of 10 meets 010 at node 3 first, then 020 at node 0 (020 = 000),
    # a smaller root, then 021 at node 1, which must join node 0, not 3
    rels = (((1, 0), (2, 0)), ((1, 0), (2, 1)), ((0, 2), (0, 0)))
    counts = series_from_presentation(MonoidPresentation(3, rels), 5).counts
    assert counts == oracles.presentation_growth_oracle(3, rels, 5)
    assert counts == (1, 3, 6, 10, 16, 25)


def test_repeated_successor_row_is_skipped():
    # at length 4 one class of length 2 of canonical(1, 1, 1) has the same
    # successor row as an earlier one, so its union stars are skipped
    s = canonical_solution(1, 1, 1)
    assert growth_series(s, 6).counts == oracles.growth_oracle(s, 6)
    assert normal_forms(s, 6) == oracles.normal_forms_oracle(s, 6)


def test_equal_first_successor_alone_is_not_skipped():
    # with 10 = 00 the words 0 and 1 share their first successor 00 = 10
    # but not their second, 01 and 11, so the stars of both are joined;
    # skipping on the first successor alone would give 1, 2, 3, 5, 8, 13
    rels = (((1, 0), (0, 0)),)
    counts = series_from_presentation(MonoidPresentation(2, rels), 5).counts
    assert counts == oracles.presentation_growth_oracle(2, rels, 5)
    assert counts == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("generators", [0, -1])
def test_presentation_needs_a_generator(generators):
    with pytest.raises(ValidationError):
        MonoidPresentation(generators, ())


LENGTH_MESSAGE = "relations must pair words of length 2"
LETTER_MESSAGE = "relation letter out of range"


def _relation_with(place, letter):
    """The relation (1, 1) = (1, 1) with `letter` at one of its four places."""
    w = [1, 1, 1, 1]
    w[place] = letter
    return (w[0], w[1]), (w[2], w[3])


@pytest.mark.parametrize(
    "relations, message",
    [
        ((((0,), (1, 0)),), LENGTH_MESSAGE),
        ((((0, 1), (1, 0, 1)),), LENGTH_MESSAGE),
        ((((0, 1), ()),), LENGTH_MESSAGE),
        # a letter equal to the generators, past them, or negative, at
        # each of the four places
        *(
            ((_relation_with(place, bad),), LETTER_MESSAGE)
            for bad in (3, 7, -1)
            for place in range(4)
        ),
        # the first faulty relation decides, its length before its letters
        ((((0, 1), (1, 0)), ((0, 3), (1,)), ((5, 0), (0, 0))), LENGTH_MESSAGE),
        ((((0, 1), (1, 0)), ((5, 0), (0, 0)), ((0,), (0, 0))), LETTER_MESSAGE),
        ((((2, 2), (2, 2)), ((0,), (0, 0)), ((-1, 0), (0, 0))), LENGTH_MESSAGE),
    ],
)
def test_presentation_names_its_first_faulty_relation(relations, message):
    with pytest.raises(ValidationError) as exc:
        MonoidPresentation(3, relations)
    assert str(exc.value) == message


def test_growth_series_budget():
    # canonical(3,1,1) has 12 classes at length 1, so 144 nodes at length 2
    with pytest.raises(BudgetError):
        growth_series(canonical_solution(3, 1, 1), 7, word_budget=143)
    with pytest.raises(BudgetError):
        growth_series(identity_solution(4), 6, word_budget=100)
    assert growth_series(canonical_solution(3, 1, 1), 2, word_budget=144).counts[2] > 0
    # a budget no stratum can meet is an input error, not a spent budget
    with pytest.raises(ValidationError):
        growth_series(identity_solution(4), 6, word_budget=-5)


def test_growth_series_bad_arguments():
    with pytest.raises(ValidationError):
        growth_series(identity_solution(2), -1)
    cap = MAX_GROWTH_LENGTH
    assert len(growth_series(identity_solution(1), cap).counts) == cap + 1
    with pytest.raises(ValidationError):
        growth_series(identity_solution(1), cap + 1)
    with pytest.raises(ValidationError):
        normal_forms(identity_solution(1), cap + 1)


def test_rank_expected_examples():
    assert rank_expected(canonical_solution(3, 1, 1)) == 3
    assert rank_expected(irretractable_solution(1)) == 1
    for n in (1, 2, 5):
        assert rank_expected(identity_solution(n)) == n


def test_rank_expected_rejects_non_involutive():
    with pytest.raises(ValidationError):
        rank_expected(group_solution(cyclic_group(4)))


def test_estimate_growth_degree_examples():
    deg = estimate_growth_degree(growth_series(irretractable_solution(1), 5))
    assert deg.degree == 1
    deg = estimate_growth_degree(growth_series(identity_solution(2), 4))
    assert deg.degree == 2
    deg = estimate_growth_degree(growth_series(identity_solution(1), 3))
    assert deg.degree == 1


def test_estimate_growth_degree_inconclusive_when_short():
    assert estimate_growth_degree(GrowthSeries((1, 3))) is None
    assert estimate_growth_degree(GrowthSeries((1, 4, 9))) is None


def test_estimate_growth_degree_reports_onset():
    est = estimate_growth_degree(growth_series(canonical_solution(3, 1, 1), 8))
    assert est.degree == 3
    assert est.onset == 2


def test_growth_degree_matches_rank_small_panel():
    for s in small_involutive_panel():
        if s.size > 6:
            continue
        rank = rank_expected(s)
        series = growth_series(s, rank + 4)
        est = estimate_growth_degree(series)
        assert est is not None
        assert est.degree == rank


def test_normal_forms_examples():
    assert normal_forms(irretractable_solution(1), 2) == [(0, 0), (0, 1)]
    assert normal_forms(identity_solution(2), 2) == [(0, 0), (0, 1), (1, 1)]
    assert normal_forms(identity_solution(3), 0) == [()]


def test_normal_forms_count_matches_series():
    for s in small_involutive_panel():
        if s.size > 4:
            continue
        counts = growth_series(s, 4).counts
        for ell in range(5):
            forms = normal_forms(s, ell)
            assert len(forms) == counts[ell]
            assert forms == oracles.normal_forms_oracle(s, ell)


def test_normal_forms_budget():
    with pytest.raises(BudgetError):
        normal_forms(canonical_solution(3, 1, 1), 7, word_budget=143)
    with pytest.raises(BudgetError):
        normal_forms(identity_solution(4), 6, word_budget=100)
    with pytest.raises(ValidationError):
        normal_forms(identity_solution(4), 6, word_budget=-5)


@given(
    size=st.integers(1, 4),
    length=st.integers(0, 5),
    involution=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_growth_matches_dense_oracle_on_random_tables(size, length, involution, rng):
    make = oracles.random_involution_table if involution else oracles.random_table
    s = make(size, rng)
    assert growth_series(s, length).counts == oracles.growth_oracle(s, length)
    assert normal_forms(s, length) == oracles.normal_forms_oracle(s, length)


@st.composite
def _presentations(draw):
    """Pair presentations no table produces: repeats, trivial pairs, cycles."""
    n = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rels = draw(st.lists(st.tuples(pair, pair), max_size=13))
    if rels:
        rels += draw(st.lists(st.sampled_from(rels), max_size=3))
    p, q, r = draw(pair), draw(pair), draw(pair)
    if draw(st.booleans()):
        rels.append((p, p))
    if draw(st.booleans()):
        rels += [(p, q), (q, r), (r, p)]
    return n, tuple(draw(st.permutations(rels)))


@given(pres=_presentations(), length=st.integers(0, 5))
def test_series_from_presentation_matches_dense_oracle(pres, length):
    n, rels = pres
    counts = series_from_presentation(MonoidPresentation(n, rels), length).counts
    assert counts == oracles.presentation_growth_oracle(n, rels, length)


def test_series_monotone_under_relation_subsets(rng):
    for s in [irretractable_solution(1), canonical_solution(2, 1, 0)]:
        pres = presentation_of(s)
        full = series_from_presentation(pres, 5).counts
        rels = list(pres.relations)
        for _ in range(4):
            subset = tuple(r for r in rels if rng.random() < 0.5)
            sub = MonoidPresentation(pres.generators, subset)
            partial = series_from_presentation(sub, 5).counts
            assert all(p >= f for p, f in zip(partial, full))
        # subsets generating the same congruence give equal counts:
        # dropping the trivial pairs, or listing everything twice
        nontrivial = tuple(r for r in rels if r[0] != r[1])
        assert series_from_presentation(
            MonoidPresentation(pres.generators, nontrivial), 5
        ).counts == full
        assert series_from_presentation(
            MonoidPresentation(pres.generators, tuple(rels) * 2), 5
        ).counts == full


def test_free_when_all_relations_trivial():
    # counts hit n^ell for every length exactly when every relation pair
    # is syntactically trivial
    for s in small_involutive_panel():
        if s.size > 3:
            continue
        pres = presentation_of(s)
        trivial = all(lhs == rhs for lhs, rhs in pres.relations)
        counts = growth_series(s, 4).counts
        hits_free = all(c == s.size**ell for ell, c in enumerate(counts))
        assert trivial == hits_free


def test_stratum_consistent_with_previous_length():
    # words equal at length ell-1 stay equal after appending a generator
    for s in [irretractable_solution(1), canonical_solution(2, 1, 0)]:
        n = s.size
        for ell in (2, 3, 4):
            prev = oracles.dense_stratum(s, ell - 1)
            cur = oracles.dense_stratum(s, ell)
            for w1 in range(n ** (ell - 1)):
                w2 = prev[w1]
                if w1 == w2:
                    continue
                for g in range(n):
                    assert cur[w1 * n + g] == cur[w2 * n + g]


def test_growth_defined_beyond_involutive_solutions():
    # the presentation exists for any table; only rank needs the hypotheses
    from pentagon import SolutionTable

    flip = SolutionTable(2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    for s in (flip, group_solution(cyclic_group(4))):
        counts = growth_series(s, 5).counts
        assert counts == oracles.growth_oracle(s, 5)
        assert counts[0] == 1
        assert counts[1] == s.size


def test_growth_series_on_enumerated_catalog():
    for n in (1, 2, 3):
        for s in enumerate_pruned(n):
            series = growth_series(s, 6)
            assert series.counts[0] == 1
            assert series.counts[1] == n
            est = estimate_growth_degree(series)
            assert est is not None
            assert est.degree == rank_expected(s)
