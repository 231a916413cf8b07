"""Acceptance suite: one test per shipped criterion, exact tolerances.

Run standalone with `pytest tests/test_acceptance.py -s` to see one
PASS/FAIL line per criterion.  Everything is offline and deterministic;
the only randomness is seeded.
"""

import json
import random
import time
from contextlib import contextmanager
from math import gcd

import pytest

from pentagon import (
    canonical_solution,
    check_involutive,
    check_pentagon,
    classify,
    cyclic_group,
    cycle_solution,
    decomposition_solution,
    direct_product_group,
    enumerate_pruned,
    estimate_growth_degree,
    ext_solution,
    find_isomorphism,
    group_solution,
    growth_series,
    identity_solution,
    irretractable_solution,
    order_of,
    rank_expected,
    retract,
    sigma_search,
    trivial_group,
    xor_group,
)
from pentagon.constructors import Decomposition, SigmaMap
from pentagon.core import perm_order
from pentagon.cli import run

import oracles

_SUITE_STARTED = time.perf_counter()


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {number}: PASS  {description}  [{dt:.2f}s]")


def _cli_json(capsys, argv):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def test_criterion_1_classification_counts(capsys):
    with criterion(1, "class counts 1,3,1,6,1,3 for sizes 1..6"):
        expected = {1: 1, 2: 3, 3: 1, 4: 6}
        for n, want in expected.items():
            t0 = time.perf_counter()
            code, payload = _cli_json(
                capsys, ["enumerate", "--size", str(n), "--up-to-iso"]
            )
            elapsed = time.perf_counter() - t0
            assert code == 0
            assert payload["results"]["class_count"] == want
            if n <= 3:
                assert elapsed < 1.0
            else:
                assert elapsed < 300.0
        for n, want, budget in ((5, 1, 30000), (6, 3, 20000)):
            code, payload = _cli_json(
                capsys,
                [
                    "enumerate",
                    "--size",
                    str(n),
                    "--up-to-iso",
                    "--budget-ms",
                    str(budget),
                    "--workers",
                    "2",
                ],
            )
            # both finish far inside their budgets (about 0.06 s and 0.3 s)
            assert code == 0
            assert payload["results"]["class_count"] == want


def test_criterion_2_oracle_equivalence():
    with criterion(2, "naive and pruned searches emit identical table sets"):
        for n in (1, 2, 3):
            naive = oracles.naive_tables(n)
            pruned = enumerate_pruned(n)
            assert set(naive) == set(pruned)
            assert naive == pruned  # both canonically sorted


def test_criterion_3_twelve_element_catalog():
    with criterion(3, "the six 12-element solutions verify and classify distinctly"):
        t0 = time.perf_counter()
        shapes = [
            (12, 0, 0),
            (6, 1, 0),
            (6, 0, 1),
            (3, 2, 0),
            (3, 0, 2),
            (3, 1, 1),
        ]
        seen = set()
        for x, a, g in shapes:
            s = canonical_solution(x, a, g)
            assert s.size == 12
            assert check_pentagon(s)
            assert check_involutive(s)
            triple = classify(s)
            seen.add((triple.x_size, triple.a_dim, triple.g_dim))
        assert seen == set(shapes)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_sigma_search():
    with criterion(4, "sigma search on four labels finds exactly four permutations"):
        assert sigma_search(4) == [
            (0, 1, 2, 3),
            (1, 0, 3, 2),
            (3, 0, 1, 2),
            (3, 2, 1, 0),
        ]


def test_criterion_5_order_formula():
    with criterion(5, "cycle-family order equals lcm(order of sigma, exponent of G)"):
        t0 = time.perf_counter()
        groups = [
            trivial_group(),
            cyclic_group(2),
            direct_product_group(cyclic_group(2), cyclic_group(2)),
            cyclic_group(4),
        ]
        for n in (1, 2, 3, 4, 5):
            for sigma in sigma_search(n):
                for g in groups:
                    expected = (
                        perm_order(sigma)
                        * g.exponent
                        // gcd(perm_order(sigma), g.exponent)
                    )
                    s = cycle_solution(sigma, g)
                    assert order_of(s) == expected
        assert time.perf_counter() - t0 < 30.0


def _retraction_panel(rng):
    panel = []
    for x in range(1, 17):
        for a in range(5):
            for g in range(5):
                if x << (a + g) <= 16:
                    panel.append(canonical_solution(x, a, g))
    for x_size, a_dim in [(2, 1), (3, 1), (2, 2), (4, 1), (1, 3), (1, 4), (3, 2)]:
        if x_size << a_dim > 16:
            continue
        perms = []
        for _ in range(1 << a_dim):
            p = list(range(x_size))
            rng.shuffle(p)
            perms.append(tuple(p))
        panel.append(
            ext_solution(
                Decomposition(x_size, a_dim, 0, SigmaMap(x_size, a_dim, tuple(perms)))
            )
        )
    panel.append(
        decomposition_solution(
            Decomposition(2, 1, 1, SigmaMap(2, 1, ((0, 1), (1, 0))))
        )
    )
    for r in range(5):
        panel.append(irretractable_solution(r))
        if r <= 4:
            panel.append(group_solution(xor_group(r)))
    return panel


def test_criterion_6_retraction_suite(rng):
    with criterion(6, "retract classes equal-sized, retract irretractable, Ret(Ext)=A"):
        for s in _retraction_panel(rng):
            res = retract(s)
            assert len(set(res.class_sizes)) == 1
            assert oracles.is_irretractable(res.quotient)
        for n in (1, 2, 3, 4):
            for s in enumerate_pruned(n):
                res = retract(s)
                assert len(set(res.class_sizes)) == 1
                assert oracles.is_irretractable(res.quotient)
        # the retract of an extension recovers the bitmask solution
        for x_size, a_dim in [(2, 1), (3, 1), (2, 2), (4, 2), (1, 3)]:
            perms = []
            for _ in range(1 << a_dim):
                p = list(range(x_size))
                rng.shuffle(p)
                perms.append(tuple(p))
            s = ext_solution(
                Decomposition(x_size, a_dim, 0, SigmaMap(x_size, a_dim, tuple(perms)))
            )
            quotient = retract(s).quotient
            target = irretractable_solution(a_dim)
            f = find_isomorphism(quotient, target)
            assert f is not None


def test_criterion_7_isomorphism_theorem():
    with criterion(7, "isomorphism presence coincides with classification triples"):
        by_size = {n: enumerate_pruned(n) for n in (1, 2, 3, 4)}
        for n, tables in by_size.items():
            triples = [classify(s) for s in tables]
            for i in range(len(tables)):
                for j in range(i, len(tables)):
                    found = find_isomorphism(tables[i], tables[j]) is not None
                    assert found == (triples[i] == triples[j])
        # irretractable solutions of equal size are pairwise isomorphic
        for n, tables in by_size.items():
            irr = [s for s in tables if oracles.is_irretractable(s)]
            for i in range(len(irr)):
                for j in range(i + 1, len(irr)):
                    assert find_isomorphism(irr[i], irr[j]) is not None


def test_criterion_8_structure_monoid_growth():
    with criterion(8, "growth series and degree match the rank prediction"):
        t0 = time.perf_counter()
        assert growth_series(irretractable_solution(1), 6).counts == (
            1, 2, 2, 2, 2, 2, 2,
        )
        catalog = []
        for n in (1, 2, 3, 4):
            catalog.extend(enumerate_pruned(n))
        catalog.append(canonical_solution(2, 1, 0))
        catalog.append(canonical_solution(3, 1, 1))
        for s in catalog:
            rank = rank_expected(s)
            length = min(10, rank + 4)
            est = estimate_growth_degree(growth_series(s, length))
            assert est is not None, f"no stabilization within length {length}"
            assert est.degree == rank
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_identity_characterization():
    with criterion(9, "growth degree hits the carrier size only for identity maps"):
        for n in (1, 2, 3, 4):
            for s in enumerate_pruned(n):
                est = estimate_growth_degree(growth_series(s, min(10, n + 4)))
                assert est is not None
                assert (est.degree == n) == (s == identity_solution(n))


def test_criterion_10_cli_end_to_end(capsys):
    with criterion(10, "criteria drive through the CLI, offline, fixed seed"):
        checks = [
            (["verify", "--axioms", "pe,involutive", "canonical(3,1,1)"], 0),
            (["enumerate", "--size", "4", "--up-to-iso"], 0),
            (["sigma-search", "--n", "4"], 0),
            (["growth", "irretractable(1)", "--length", "6"], 0),
            (["order", "canonical(1,0,2)"], 0),
            (["classify", "canonical(6,1,0)"], 0),
            (["retract", "canonical(6,0,1)"], 0),
            (["isomorphic", "canonical(2,1,0)", "canonical(2,1,0)"], 0),
            (["isomorphic", "identity(2)", "irretractable(1)"], 1),
        ]
        for argv, want in checks:
            seen = run(argv)
            capsys.readouterr()
            assert seen == want, f"{argv} exited {seen}, wanted {want}"
        # two identical runs agree byte for byte apart from timing
        code, first = _cli_json(capsys, ["enumerate", "--size", "4", "--up-to-iso"])
        assert code == 0
        code, second = _cli_json(capsys, ["enumerate", "--size", "4", "--up-to-iso"])
        assert code == 0
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second
        assert time.perf_counter() - _SUITE_STARTED < 600.0


@pytest.fixture
def rng():
    return random.Random(20240305)
