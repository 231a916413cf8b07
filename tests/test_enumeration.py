from itertools import permutations

import pytest

from pentagon import (
    BudgetError,
    ValidationError,
    canonical_form,
    canonical_solution,
    check_involutive,
    check_pentagon,
    classify,
    count_up_to_iso,
    enumerate_pruned,
    expected_count,
    identity_solution,
    relabel,
)
from pentagon.core import chase_pentagon

import oracles


def test_naive_size_one():
    tables = oracles.naive_tables(1)
    assert tables == [identity_solution(1)]


def test_naive_size_two_raw_and_classes():
    tables = oracles.naive_tables(2)
    # raw labeled count is an artifact of this repo, not a literature value
    assert len(tables) == 5
    report = count_up_to_iso(2)
    assert report.class_count == 3


def test_naive_size_three_only_identity():
    tables = oracles.naive_tables(3)
    assert tables == [identity_solution(3)]


def test_pruned_rejects_out_of_range():
    with pytest.raises(ValidationError):
        enumerate_pruned(0)
    with pytest.raises(ValidationError):
        enumerate_pruned(7)


def test_pruned_size_four():
    tables = enumerate_pruned(4)
    assert len(tables) == 57  # repo-derived labeled count
    report = count_up_to_iso(4)
    assert report.raw_count == 57
    assert report.class_count == 6
    triples = {
        (t.x_size, t.a_dim, t.g_dim)
        for t in (classify(s) for s in report.representatives)
    }
    assert triples == {
        (4, 0, 0),
        (2, 1, 0),
        (2, 0, 1),
        (1, 2, 0),
        (1, 1, 1),
        (1, 0, 2),
    }


def test_soundness_post_hoc():
    # re-verify emitted tables through the two oracles, the dictionary
    # composition and the coordinate identities; check_pentagon shares the
    # search's chase, so only the oracles are code paths disjoint from it
    for n in (1, 2, 3, 4):
        for s in enumerate_pruned(n):
            assert oracles.pentagon_oracle(s)
            assert oracles.involutive_oracle(s)
            assert check_pentagon(s)
            assert oracles.pentagon_equations_oracle(s)
            assert check_involutive(s)


def test_closure_under_relabeling(rng):
    for n in (2, 3, 4):
        tables = set(enumerate_pruned(n))
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            s = rng.choice(sorted(tables, key=lambda t: t.entries))
            assert relabel(s, perm) in tables


def test_worker_count_does_not_change_output():
    for n in (2, 3):
        assert enumerate_pruned(n, workers=1) == enumerate_pruned(n, workers=2)


def test_worker_count_does_not_change_output_size_four():
    assert enumerate_pruned(4, workers=2) == enumerate_pruned(4, workers=1)


def test_budget_exceeded_raises():
    with pytest.raises(BudgetError):
        enumerate_pruned(6, budget_ms=40)


def test_budget_exceeded_raises_with_workers():
    with pytest.raises(BudgetError):
        enumerate_pruned(6, budget_ms=40, workers=2)


def test_budget_covers_prefix_split(monkeypatch):
    # the size-6 split alone makes more deadline calls than one check
    # interval, so a spent budget must stop it before any worker starts
    import multiprocessing

    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool was created after the budget ran out")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(BudgetError):
        enumerate_pruned(6, budget_ms=0, workers=2)


def test_prefix_pruning_is_sound():
    # every row-major prefix of a real solution passes the pentagon chase,
    # so the search never prunes a branch that leads to a solution
    size_six = {
        relabel(canonical_solution(*shape), perm)
        for shape in ((6, 0, 0), (3, 1, 0), (3, 0, 1))
        for perm in permutations(range(6))
    }
    assert len(size_six) == 241
    tables = [s for n in range(1, 6) for s in enumerate_pruned(n)]
    for s in tables + list(size_six):
        n = s.size
        cells = [None] * (n * n)
        for p, (k, l) in enumerate(s.entries):
            if cells[p] is not None:
                continue  # written as the partner of an earlier cell
            cells[p] = (k, l)
            cells[k * n + l] = divmod(p, n)
            assert chase_pentagon(cells, n) is None


def test_expected_count_examples():
    assert expected_count(12) == 6
    assert expected_count(1) == 1
    assert expected_count(8) == 10  # 2^3 odd part 1: 5 choose 2
    assert expected_count(2) == 3
    assert expected_count(3) == 1
    assert expected_count(4) == 6
    assert expected_count(6) == 3
    with pytest.raises(ValidationError):
        expected_count(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_count_matches_formula(n):
    assert count_up_to_iso(n).class_count == expected_count(n)


def test_report_shape():
    report = count_up_to_iso(2)
    assert report.size == 2
    assert report.class_count <= report.raw_count
    assert report.elapsed >= 0
    # representatives are canonical: re-canonicalizing is a no-op
    for rep in report.representatives:
        assert canonical_form(rep) == rep
    # pairwise non-isomorphic
    triples = [classify(rep) for rep in report.representatives]
    assert len(set((t.x_size, t.a_dim, t.g_dim) for t in triples)) == len(triples)
    # the report carries each representative's triple, in the same order
    assert report.class_triples == tuple(
        (t.x_size, t.a_dim, t.g_dim) for t in triples
    )


def test_canonical_form_is_orbit_invariant(rng):
    for s in enumerate_pruned(3) + enumerate_pruned(2):
        perm = list(range(s.size))
        rng.shuffle(perm)
        assert canonical_form(relabel(s, perm)) == canonical_form(s)
