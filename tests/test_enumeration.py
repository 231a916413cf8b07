import json
import random
import time
from itertools import permutations
from math import inf
from types import SimpleNamespace

import pytest

from pentagon import (
    BudgetError,
    Decomposition,
    SolutionTable,
    ValidationError,
    canonical_form,
    canonical_solution,
    check_involutive,
    check_pentagon,
    classify,
    count_up_to_iso,
    enumerate_pruned,
    expected_count,
    find_isomorphism,
    identity_solution,
    relabel,
)
from pentagon import enumeration
from pentagon.cli import run
from pentagon.enumeration import _cell_order, _propagate

import oracles

SIZE_SIX_SHAPES = ((6, 0, 0), (3, 1, 0), (3, 0, 1))


def size_six_orbit(shape):
    """Every relabelling of the canonical size-6 solution of a shape."""
    base = canonical_solution(*shape)
    return frozenset(relabel(base, perm) for perm in permutations(range(6)))


def size_six_tables():
    """Every size-6 solution: the relabellings of its three classes."""
    return frozenset().union(*map(size_six_orbit, SIZE_SIX_SHAPES))


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
        enumerate_pruned(8)


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


def enumerate_output(capsys, n, workers):
    """What `enumerate --size n --up-to-iso --workers w` prints."""
    assert run(["enumerate", "--size", str(n), "--up-to-iso",
                "--workers", str(workers)]) == 0
    return capsys.readouterr().out


def test_worker_count_does_not_change_output(capsys):
    # --workers is accepted and the search runs in this process either way
    for n in (2, 3):
        assert enumerate_output(capsys, n, 1) == enumerate_output(capsys, n, 2)


def test_worker_count_does_not_change_output_size_four(capsys):
    assert enumerate_output(capsys, 4, 2) == enumerate_output(capsys, 4, 1)


def test_budget_exceeded_raises():
    with pytest.raises(BudgetError):
        enumerate_pruned(6, budget_ms=40)


def test_budget_exceeded_raises_with_workers(capsys):
    # the CLI turns the search's BudgetError into exit 3 whatever --workers says
    assert run(["enumerate", "--size", "6", "--budget-ms", "40",
                "--workers", "2"]) == 3
    assert "budget exceeded" in capsys.readouterr().out


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), -5.0])
def test_non_finite_budget_is_refused_before_the_search(monkeypatch, budget):
    def search(*args, **kwargs):
        pytest.fail("the search started")

    monkeypatch.setattr(enumeration, "_search", search)
    with pytest.raises(ValidationError, match="finite"):
        enumerate_pruned(4, budget_ms=budget)
    with pytest.raises(ValidationError, match="finite"):
        count_up_to_iso(4, budget_ms=budget)


def early_then_late(early_reads):
    """A monotonic clock an hour early for its first `early_reads` reads,
    true afterwards."""
    real = time.monotonic
    reads = 0

    def monotonic():
        nonlocal reads
        reads += 1
        return real() - 3600 if reads <= early_reads else real()

    return SimpleNamespace(monotonic=monotonic)


def test_search_stops_at_the_first_assignment_after_the_deadline(monkeypatch):
    # the clock is read before every assignment, so a deadline that passes
    # after 200 of them stops the size-6 search (3,495 assignments) there
    calls = 0
    real_propagate = enumeration._propagate

    def propagate(*args):
        nonlocal calls
        calls += 1
        return real_propagate(*args)

    monkeypatch.setattr(enumeration, "_propagate", propagate)
    monkeypatch.setattr(enumeration, "time", early_then_late(1 + 200))
    with pytest.raises(BudgetError):
        enumerate_pruned(6, budget_ms=1000)
    assert calls <= 200


def test_budget_covers_the_orbit_expansion(monkeypatch):
    # a deadline that passes while the orbits are expanded, after the
    # search's last clock read, must still raise rather than report
    real_orbit = enumeration._orbit
    late = SimpleNamespace(monotonic=lambda: time.monotonic() + 3600)

    def late_orbit(n, cells):
        monkeypatch.setattr(enumeration, "time", late)
        return real_orbit(n, cells)

    monkeypatch.setattr(enumeration, "_orbit", late_orbit)
    with pytest.raises(BudgetError):
        count_up_to_iso(6, budget_ms=60000)


def split_cells(cells):
    """The search's (F, T) layers of a list of (k, l) cells or None."""
    F = [-1 if c is None else c[0] for c in cells]
    T = [-1 if c is None else c[1] for c in cells]
    return F, T


def test_prefix_pruning_is_sound():
    # every row-major prefix of a real solution passes the pentagon chase,
    # and every prefix in the search's (max(i, j), i, j) order passes the
    # search's propagation, which never rules out the solution's own value
    # of the next cell; after every step each known first coordinate and
    # each assigned cell is the solution's own entry, so the search never
    # prunes or forces its way past a solution
    size_six = size_six_tables()
    assert len(size_six) == 241
    tables = [s for n in range(1, 6) for s in enumerate_pruned(n)]
    for s in tables + sorted(size_six, key=lambda t: t.entries):
        n = s.size
        nn = n * n
        cells = [None] * nn
        for p, (k, l) in enumerate(s.entries):
            if cells[p] is not None:
                continue  # written as the partner of an earlier cell
            cells[p] = (k, l)
            cells[k * n + l] = divmod(p, n)
            assert oracles.chase_pentagon(cells, n) is None
        F, T = [-1] * nn, [-1] * nn
        for p in _cell_order(n):
            if T[p] >= 0:
                continue  # a partner or a forced cell
            k, l = s.entries[p]
            q = k * n + l
            assert F[p] in (-1, k) and F[q] in (-1, p // n)
            F[p], T[p] = k, l
            F[q], T[q] = divmod(p, n)
            assert _propagate(n, F, T)
            assert all(f in (-1, e[0]) for f, e in zip(F, s.entries))
            assert all(t < 0 or (f, t) == e for f, t, e in zip(F, T, s.entries))
        assert tuple(zip(F, T)) == s.entries


@pytest.mark.parametrize("cells, w, first", [
    # the triple (0, 0, 1) forces s(1, 0) = (1, 0)
    ([(0, 1), (0, 0)] + [None] * 7, 3, 2),
    # the triple (0, 1, 1) forces s(2, 2) = (2, 1), and so s(2, 1) = (2, 2)
    ([None, (0, 2), (0, 1), None, (1, 1)] + [None] * 4, 7, 0),
], ids=["cell", "partner"])
def test_a_forced_cell_must_agree_with_its_known_first_coordinate(
        cells, w, first):
    # the search reaches such states only where another triple fails too,
    # so the node counts do not pin this check
    F, T = split_cells(cells)
    known, forced = list(F), list(T)
    assert _propagate(3, known, forced)
    assert forced[w] >= 0 and known[w] != first
    F[w] = first
    assert not _propagate(3, F, T)


def test_a_first_coordinate_known_ahead_must_agree_with_the_second_half():
    # s(0,1) = (0,2), s(0,2) = (0,1) and F(1,2) = 2: the triple (0, 1, 2)
    # has c = p = 0, (b, d) = (2, 1) and q = 1, so the second half asks
    # for F(2,1) = 1, which it writes when F(2,1) is unknown; a known 2
    # is a contradiction that no other triple of this state shows
    F, T = split_cells([None, (0, 2), (0, 1)] + [None] * 6)
    F[5] = 2
    known, forced = F[:], T[:]
    assert _propagate(3, known, forced)
    assert known[7] == 1 and forced[7] < 0
    F[7] = 2
    assert not _propagate(3, F, T)


def random_partial_state(n, rng):
    """Layers (F, T) as the search builds them: a few cells assigned in
    pairs, s(p) = q with s(q) = p, where F allows it, and a few first
    coordinates known ahead of their cells; neither is closed."""
    nn = n * n
    F, T = [-1] * nn, [-1] * nn
    for _ in range(rng.randrange(1, n + 2)):
        free = [w for w in range(nn) if T[w] < 0]
        if not free:
            break
        p, q = rng.choice(free), rng.choice(free)
        if F[p] in (-1, q // n) and F[q] in (-1, p // n):
            F[p], T[p] = divmod(q, n)
            F[q], T[q] = divmod(p, n)
    for _ in range(rng.randrange(3)):
        w = rng.randrange(nn)
        if F[w] < 0:
            F[w] = rng.randrange(n)
    return F, T


def test_the_closure_does_not_depend_on_the_start_row():
    # from every start row the cyclic scan must fail exactly when the
    # full passes of the oracle fail, and otherwise close the layers to
    # the same (F, T); the seeded states include both verdicts and
    # closures that write
    rng = random.Random(20)
    verdicts = {False: 0, True: 0}
    wrote = 0
    for _ in range(4000):
        n = rng.randint(1, 6)
        F, T = random_partial_state(n, rng)
        want_F, want_T = F[:], T[:]
        ok = oracles.propagate_full_passes(n, want_F, want_T)
        verdicts[ok] += 1
        wrote += ok and (want_F, want_T) != (F, T)
        for x in range(n):
            got_F, got_T = F[:], T[:]
            assert _propagate(n, got_F, got_T, x) == ok, (n, F, T, x)
            if ok:
                assert (got_F, got_T) == (want_F, want_T), (n, F, T, x)
    assert min(verdicts.values()) > 1000 and wrote > 500


def agrees(F, T, entries):
    """Whether every known fact of the layers is an entry of the table."""
    return all(f in (-1, k) and t in (-1, l)
               for f, t, (k, l) in zip(F, T, entries))


def test_the_closure_writes_only_facts_of_every_solution_it_allows():
    # against the complete solutions of the row-major search, which uses
    # neither `_propagate` nor the symmetry breaking: closing a paired
    # sub-state of a solution, with a few of its first coordinates known
    # ahead, succeeds from every start row and writes only that
    # solution's facts; a random state the closure refuses extends to
    # none of them, and one it closes keeps every solution it allowed
    rng = random.Random(24)
    tables = {n: [s.entries for s in oracles.row_major_tables(n)]
              for n in range(1, 6)}
    wrote = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        entries = rng.choice(tables[n])
        nn = n * n
        F, T = [-1] * nn, [-1] * nn
        for p in rng.sample(range(nn), rng.randrange(nn)):
            k, l = entries[p]
            F[p], T[p] = k, l
            F[k * n + l], T[k * n + l] = divmod(p, n)
        for w in rng.sample(range(nn), rng.randrange(min(3, nn) + 1)):
            F[w] = entries[w][0]
        for x in range(n):
            got_F, got_T = F[:], T[:]
            assert _propagate(n, got_F, got_T, x), (n, F, T, x)
            assert agrees(got_F, got_T, entries), (n, F, T, x)
        wrote += (got_F, got_T) != (F, T)
    refused = kept = 0
    for _ in range(6000):
        n = rng.randint(1, 5)
        F, T = random_partial_state(n, rng)
        allowed = [e for e in tables[n] if agrees(F, T, e)]
        if _propagate(n, F, T):
            assert all(agrees(F, T, e) for e in allowed), (n, F, T)
            kept += bool(allowed)
        else:
            refused += 1
            assert allowed == [], (n, F, T)
    assert wrote > 1000 and refused > 1000 and kept > 1000


@pytest.mark.parametrize("n", [4, 5, 6])
def test_finishing_a_prefix_leaves_its_layers_as_they_were(monkeypatch, n):
    # the search finishes the root, the prefix with no decision taken,
    # from the root's own layers, so it must write only into copies
    want = enumerate_pruned(n)
    real_root = enumeration._root
    roots = []

    def root(n):
        roots.append(real_root(n))
        return roots[-1]

    monkeypatch.setattr(enumeration, "_root", root)
    assert enumerate_pruned(n) == want
    assert roots == [real_root(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetry_broken_search_matches_row_major(n):
    assert enumerate_pruned(n) == oracles.row_major_tables(n)


def test_size_six_is_every_relabelling_of_three_classes():
    tables = enumerate_pruned(6)
    assert tables == sorted(size_six_tables(), key=lambda t: t.entries)


def test_representatives_are_canonical_forms():
    # the first table of a complete sorted orbit is its canonical form
    for n in range(1, 7):
        report = count_up_to_iso(n)
        assert report.class_count == expected_count(n)
        for rep in report.representatives:
            assert canonical_form(rep) == rep


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_table_is_isomorphic_to_exactly_one_representative(n):
    # the explicit isomorphism search, independent of the orbit grouping:
    # each table meets one representative, which carries the table's triple
    report = count_up_to_iso(n)
    for t in enumerate_pruned(n):
        hits = [
            i for i, rep in enumerate(report.representatives)
            if find_isomorphism(rep, t) is not None
        ]
        assert len(hits) == 1
        c = classify(t)
        assert report.class_triples[hits[0]] == (c.x_size, c.a_dim, c.g_dim)


def test_size_six_tables_classify_to_their_shape():
    for shape in SIZE_SIX_SHAPES:
        for t in size_six_orbit(shape):
            c = classify(t)
            assert (c.x_size, c.a_dim, c.g_dim) == shape


def test_classify_runs_once_per_class(monkeypatch):
    calls = []

    def spy(s):
        calls.append(s)
        return classify(s)

    monkeypatch.setattr(enumeration, "classify", spy)
    report = count_up_to_iso(4)
    assert report.raw_count == 57
    assert calls == list(report.representatives)
    assert len(calls) == 6


def test_two_classes_with_one_triple_raise(monkeypatch):
    monkeypatch.setattr(
        enumeration, "classify", lambda s: Decomposition(1, 0, 0)
    )
    with pytest.raises(ValidationError, match="share the triple"):
        count_up_to_iso(2)


def test_canonical_form_matches_oracle(rng):
    tables = [s for n in range(1, 5) for s in enumerate_pruned(n)]
    tables += [oracles.random_table(n, rng) for n in range(1, 5) for _ in range(25)]
    for s in tables:
        assert canonical_form(s) == oracles.canonical_form_oracle(s)


def test_canonical_form_refuses_carriers_above_its_bound(monkeypatch):
    # n! relabelings: the bound is checked before the first one
    calls = []
    monkeypatch.setattr(enumeration, "_orbit", lambda *args: calls.append(args))
    n = enumeration.MAX_CANONICAL_SIZE + 1
    with pytest.raises(ValidationError, match="canonical_form"):
        canonical_form(identity_solution(n))
    assert calls == []


def test_every_table_has_a_fixed_point_where_the_search_starts(rng):
    # the search starts at s(0,0) = (0,0).  The first coordinates form a
    # finite semigroup, so some e is idempotent, and with s(e,e) = (e,f)
    # the equation at (e,e,e) reads s(f,f) = (f,f).  Checked on the
    # row-major solutions, which use neither the propagator nor the
    # symmetry breaking, and on a relabelling of every canonical shape
    # with |S| <= 16
    tables = [s for n in range(1, 5) for s in oracles.row_major_tables(n)]
    assert len(tables) == 64
    shapes = [(x, a, g) for x in range(1, 17) for a in range(5)
              for g in range(5) if x << (a + g) <= 16]
    assert len(shapes) == 57
    for shape in shapes:
        s = canonical_solution(*shape)
        perm = list(range(s.size))
        rng.shuffle(perm)
        tables.append(relabel(s, perm))
    for s in tables:
        n, cells = s.size, s.entries
        idempotents = [e for e in range(n) if cells[e * n + e][0] == e]
        assert idempotents, s
        for e in idempotents:
            f = cells[e * n + e][1]
            assert cells[f * n + f] == (f, f), (s, e)


@pytest.mark.parametrize("n", range(1, 8))
def test_the_search_emits_only_tables_with_the_fixed_point(monkeypatch, n):
    # every node appends to the list its caller passed, and the root call
    # from `_orbits` returns last, so that list holds every emitted table
    outs = []
    search = enumeration._search

    def spy(*args):
        nodes = search(*args)
        outs.append(args[-1])
        return nodes

    monkeypatch.setattr(enumeration, "_search", spy)
    assert count_up_to_iso(n).raw_count == RAW_COUNTS[n]
    emitted = outs[-1]
    assert all(out is emitted for out in outs)
    assert emitted and all(cells[0] == (0, 0) for cells in emitted)


def test_search_nodes_at_size_five(capsys):
    # assignments tried by the symmetry-broken search from s(0,0) = (0,0)
    # with propagated first coordinates, the second half read both ways
    # and the fail-first cell choice.  From the empty table it tried
    # 1,506; reading the second half one way only 1,839, in the static
    # cell order 2,420, with forced cells alone 27,389, and the row-major
    # search without either 354,259
    assert count_up_to_iso(5).nodes == 1098
    assert run(["--json", "enumerate", "--size", "5", "--up-to-iso",
                "--workers", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["search_nodes"] == 1098


def up_to_iso_results(capsys, n, workers):
    """The results `--json enumerate --size n --up-to-iso --workers w` prints."""
    assert run(["--json", "enumerate", "--size", str(n), "--up-to-iso",
                "--workers", str(workers)]) == 0
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_search_nodes_at_size_six(capsys, workers):
    # from the empty table 4,962, and there 6,308 reading the second half
    # one way only, 9,726 in the static cell order, 957,188 with forced
    # cells alone; --workers leaves the one search as it is
    assert count_up_to_iso(6).nodes == 3495
    assert up_to_iso_results(capsys, 6, workers)["search_nodes"] == 3495


@pytest.mark.parametrize("workers", [1, 2])
def test_size_seven_is_one_class(capsys, workers):
    # an odd size has one class, (n, 0, 0)
    report = count_up_to_iso(7)
    assert (report.raw_count, report.class_count) == (1, 1)
    assert report.class_triples == ((7, 0, 0),)
    # from the empty table 11,000, and there 14,164 reading the second
    # half one way only, 28,606 in the static cell order
    assert report.nodes == 8025
    results = up_to_iso_results(capsys, 7, workers)
    assert (results["raw_count"], results["class_count"],
            results["class_triples"], results["search_nodes"]) == (
        1, 1, [[7, 0, 0]], 8025)


# raw tables and class triples at sizes 1..7, as the search in the
# static cell order found them
RAW_COUNTS = {1: 1, 2: 5, 3: 1, 4: 57, 5: 1, 6: 241, 7: 1}


def shape_triples(n):
    """The triples (|X|, log2 |A|, log2 |G|) the theorem allows at size n."""
    k = (n & -n).bit_length() - 1
    return {(n >> (a + g), a, g) for a in range(k + 1) for g in range(k + 1 - a)}


@pytest.mark.parametrize("n", range(1, 8))
def test_cells_with_a_known_first_coordinate_mention_no_new_element(
        monkeypatch, n):
    # the fail-first choice may take a later cell only because every fact
    # the propagator writes mentions elements <= m; the recursion goes
    # through the module global, so the spy sees every node
    search, propagate = enumeration._search, enumeration._propagate
    calls = passed = 0

    def counted(*args):
        nonlocal passed
        ok = propagate(*args)
        passed += ok
        return ok

    def spy(n, F, T, order, pos, m, *rest):
        nonlocal calls
        calls += 1
        for c in range(n * n):
            if F[c] >= 0 > T[c]:
                assert max(divmod(c, n)) <= m, (F, T, m, c)
        return search(n, F, T, order, pos, m, *rest)

    monkeypatch.setattr(enumeration, "_search", spy)
    monkeypatch.setattr(enumeration, "_propagate", counted)
    report = count_up_to_iso(n)
    assert calls > passed  # the root, and a child per assignment that held
    assert report.raw_count == RAW_COUNTS[n]
    assert set(report.class_triples) == shape_triples(n)
    assert report.representatives == tuple(sorted(
        (canonical_form(canonical_solution(*t)) for t in report.class_triples),
        key=lambda t: t.entries,
    ))


def test_the_search_reaches_every_class_at_size_eight():
    # past the public cap: the search from the root `_orbits` starts at
    # finds 196 complete tables, and between them the ten classes of
    # 8 = 2^3, in 14,664 assignments (from the empty table 302 tables in
    # 19,479, and 27,237 reading the second half one way only)
    F, T, m = enumeration._root(8)
    out = []
    nodes = enumeration._search(8, F, T, _cell_order(8), 0, m, inf, out)
    assert len(out) == 196
    assert nodes == 14664
    triples = set()
    for cells in out:
        assert cells[0] == (0, 0)
        s = SolutionTable(8, cells)
        assert check_pentagon(s) and check_involutive(s)
        c = classify(s)
        triples.add((c.x_size, c.a_dim, c.g_dim))
    assert len(triples) == expected_count(8) == 10
    assert triples == shape_triples(8)


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


def test_reports_are_equal_across_worker_counts(capsys):
    # a report holds only what the search determines, no timings, so two
    # runs compare equal, and the CLI reports it unchanged under --workers 2
    report = count_up_to_iso(5)
    assert count_up_to_iso(5) == report
    assert run(["--json", "enumerate", "--size", "5", "--up-to-iso",
                "--workers", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["raw_count"], results["search_nodes"]) == (
        report.raw_count, report.nodes)


def test_canonical_form_is_orbit_invariant(rng):
    for s in enumerate_pruned(3) + enumerate_pruned(2):
        perm = list(range(s.size))
        rng.shuffle(perm)
        assert canonical_form(relabel(s, perm)) == canonical_form(s)
