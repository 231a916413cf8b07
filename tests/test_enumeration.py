import json
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
from pentagon.cli import run
from pentagon.core import chase_pentagon
from pentagon.enumeration import _cell_order

import oracles


def size_six_tables():
    """Every size-6 solution: the relabellings of its three classes."""
    return frozenset(
        relabel(canonical_solution(*shape), perm)
        for shape in ((6, 0, 0), (3, 1, 0), (3, 0, 1))
        for perm in permutations(range(6))
    )


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
    # the size-6 split makes fewer deadline calls than one check interval,
    # so the deadline is also checked once between the split and the
    # workers: a spent budget must stop the search before any worker starts
    import multiprocessing

    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool was created after the budget ran out")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(BudgetError):
        enumerate_pruned(6, budget_ms=0, workers=2)


def test_prefix_pruning_is_sound():
    # every row-major prefix of a real solution passes the pentagon chase,
    # and so does every prefix in the search's (max(i, j), i, j) order with
    # forced cells written; every forced cell is the solution's own entry,
    # so the search never prunes or forces its way past a solution
    size_six = size_six_tables()
    assert len(size_six) == 241
    tables = [s for n in range(1, 6) for s in enumerate_pruned(n)]
    for s in tables + sorted(size_six, key=lambda t: t.entries):
        n = s.size
        cells = [None] * (n * n)
        for p, (k, l) in enumerate(s.entries):
            if cells[p] is not None:
                continue  # written as the partner of an earlier cell
            cells[p] = (k, l)
            cells[k * n + l] = divmod(p, n)
            assert chase_pentagon(cells, n) is None
        cells = [None] * (n * n)
        trail = []
        for p in _cell_order(n):
            if cells[p] is not None:
                continue  # a partner or a forced cell
            k, l = s.entries[p]
            cells[p] = (k, l)
            cells[k * n + l] = divmod(p, n)
            assert chase_pentagon(cells, n, trail) is None
            assert all(cells[q] == s.entries[q] for q in trail)
        assert tuple(cells) == s.entries


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetry_broken_search_matches_row_major(n):
    want = oracles.row_major_tables(n)
    assert enumerate_pruned(n, workers=1) == want
    assert enumerate_pruned(n, workers=2) == want


def test_size_six_is_every_relabelling_of_three_classes():
    tables = enumerate_pruned(6, workers=2)
    assert tables == sorted(size_six_tables(), key=lambda t: t.entries)


def test_representatives_are_canonical_forms():
    # the first table of a complete sorted orbit is its canonical form
    for n in range(1, 7):
        report = count_up_to_iso(n, workers=2 if n == 6 else 1)
        assert report.class_count == expected_count(n)
        for rep in report.representatives:
            assert canonical_form(rep) == rep


def test_search_nodes_at_size_five(capsys):
    # assignments tried by the symmetry-broken search with forced cells;
    # the row-major search without either tried 354,259
    assert count_up_to_iso(5).nodes == 27389
    assert run(["--json", "enumerate", "--size", "5", "--up-to-iso",
                "--workers", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["search_nodes"] == 27389


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
