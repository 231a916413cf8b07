import json
import os
import pathlib
import random
import tempfile
import time

import pytest
from hypothesis import example, given, strategies as st

from pentagon import (
    Decomposition,
    ValidationError,
    canonical_solution,
    cycle_solution,
    cyclic_group,
    enumerate_pruned,
    identity_solution,
    irretractable_solution,
    relabel,
)
from pentagon import analysis, cli, core
from pentagon.cli import (
    DEFAULT_WORD_BUDGET,
    HEADER,
    MAX_EXPRESSION_CELLS,
    ParseError,
    _build_parser,
    _parse_lines,
    emit_solution,
    load_solution,
    parse_sigma_text,
    parse_solution,
    run,
)

import oracles
from conftest import (
    identity_with_one_cell_changed,
    near_solutions,
    prime_cycles_table,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_TABLES = {
    "identity_1.solution": identity_solution(1),
    "bitmask_1.solution": irretractable_solution(1),
    "canonical_3_1_1.solution": canonical_solution(3, 1, 1),
    "cycle_1432_c2.solution": cycle_solution((3, 0, 1, 2), cyclic_group(2)),
}


# ---------------------------------------------------------------------------
# file format


def test_golden_files_are_bit_stable():
    for name, table in GOLDEN_TABLES.items():
        on_disk = (GOLDEN / name).read_text()
        assert emit_solution(table) == on_disk


def test_round_trip_over_golden_corpus():
    for name in GOLDEN_TABLES:
        text = (GOLDEN / name).read_text()
        assert emit_solution(parse_solution(text)) == text


def test_parse_accepts_shuffled_rows():
    text = emit_solution(irretractable_solution(1))
    lines = text.splitlines()
    shuffled = "\n".join(lines[:2] + list(reversed(lines[2:]))) + "\n"
    assert parse_solution(shuffled) == irretractable_solution(1)
    assert emit_solution(parse_solution(shuffled)) == text


@given(s=near_solutions())
def test_parse_inverts_emit(s):
    assert parse_solution(emit_solution(s)) == s


# edits of an emitted text: each breaks the canonical layout, or keeps it
# (an identity shuffle, say), and both readers must then agree
TEXT_EDITS = [
    "none", "shuffle", "trailing space", "tab", "crlf", "leading zero",
    "plus sign", "out of range", "not an integer", "dropped row",
    "duplicated row", "three then five tokens", "size too large",
    "no final newline", "text after the last line",
]


def _edited_text(data, s):
    head, rows = [HEADER, f"size {s.size}"], emit_solution(s).splitlines()[2:]
    edit = data.draw(st.sampled_from(TEXT_EDITS), label="edit")
    r = data.draw(st.integers(0, len(rows) - 1), label="row")
    c = data.draw(st.integers(0, 3), label="column")
    tokens = rows[r].split()
    end = "\n"
    if edit == "shuffle":
        rows = data.draw(st.permutations(rows), label="order")
    elif edit == "trailing space":
        rows[r] += " "
    elif edit == "tab":
        rows[r] = rows[r].replace(" ", "\t", 1)
    elif edit == "crlf":
        end = "\r\n"
    elif edit == "leading zero":
        tokens[c] = "0" + tokens[c]
    elif edit == "plus sign":
        tokens[c] = "+" + tokens[c]
    elif edit == "out of range":
        tokens[c] = data.draw(st.sampled_from([str(s.size), str(s.size + 1), "-1"]))
    elif edit == "not an integer":
        tokens[c] = "x"
    elif edit == "dropped row":
        del rows[r]
    elif edit == "duplicated row":
        rows.insert(r, rows[r])
    elif edit == "three then five tokens":
        # the same tokens in the same order, one moved to the next line
        rows[r:r + 2] = [" ".join(tokens[:3]), " ".join([tokens[3]] + rows[r + 1:r + 2])]
    elif edit == "size too large":
        head[1] = f"size {s.size + data.draw(st.integers(1, 3))}"
    if edit in ("leading zero", "plus sign", "out of range", "not an integer"):
        rows[r] = " ".join(tokens)
    text = end.join(head + rows) + end
    if edit == "no final newline":
        return text[:-1]
    if edit == "text after the last line":
        return text + rows[r]
    return text


@given(s=near_solutions(), data=st.data())
def test_row_reader_agrees_with_line_reader(s, data):
    text = _edited_text(data, s)
    try:
        want = _parse_lines(text)
    except (ParseError, ValidationError) as exc:
        with pytest.raises(type(exc)) as got:
            parse_solution(text)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        assert parse_solution(text) == want


def test_emit_line_counts():
    assert emit_solution(identity_solution(1)).count("\n") == 3
    assert emit_solution(canonical_solution(3, 1, 1)).count("\n") == 146


def test_parse_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse_solution("wrong\nsize 1\n0 0 0 0\n")


def test_parse_bad_size_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_solution("pentagon-solution v1\nsize x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_solution("pentagon-solution v1\nsize 0\n")


def test_parse_bad_row():
    with pytest.raises(ParseError, match="line 3"):
        parse_solution("pentagon-solution v1\nsize 1\n0 0 0\n")


def test_parse_out_of_range():
    with pytest.raises(ParseError, match="line 4"):
        parse_solution("pentagon-solution v1\nsize 1\n0 0 0 0\n0 1 0 0\n")


@pytest.mark.parametrize("k, l", [(2, 0), (0, 7), (-1, 1)])
def test_out_of_range_value_exits_2_naming_its_pair(tmp_path, capsys, k, l):
    # the parser range-checks only i and j, which key its rows; k and l are
    # checked once, by SolutionTable, whose error names the pair
    path = tmp_path / "bad.solution"
    path.write_text(f"{HEADER}\nsize 2\n0 0 0 0\n0 1 {k} {l}\n1 0 1 0\n1 1 1 1\n")
    assert run(["verify", str(path)]) == 2
    assert f"s(0,1)=({k},{l}) is out of range for size 2" in capsys.readouterr().err


def test_parse_duplicate_row():
    text = "pentagon-solution v1\nsize 2\n0 0 0 0\n0 0 0 0\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_solution(text)


def test_parse_missing_rows():
    with pytest.raises(ParseError, match="missing"):
        parse_solution("pentagon-solution v1\nsize 2\n0 0 0 0\n")


def test_parse_huge_declared_size_with_one_row(tmp_path, capsys):
    # nothing is allocated from the declared size: 10^10 pairs, one row
    path = tmp_path / "sparse.solution"
    path.write_text(f"{HEADER}\nsize 100000\n0 0 0 0\n")
    started = time.monotonic()
    assert run(["verify", str(path)]) == 2
    assert time.monotonic() - started < 5
    assert "missing row for pair (0, 1)" in capsys.readouterr().err


def test_parse_sigma_file():
    sig = parse_sigma_text("0 1 2\n2 0 1\n")
    assert sig.x_size == 3
    assert sig.a_dim == 1
    with pytest.raises(ParseError):
        parse_sigma_text("0 1\n1 0\n0 1\n")  # not a power of two
    # each row must permute 0..m-1, m the first row's length, and an
    # error names the row that does not
    for text, line in [
        ("0 0\n", 1),
        ("0 1 2\n1 2 0\n2 2 0\n0 1 2\n", 3),
        ("0 1 2\n1 2\n", 2),
    ]:
        with pytest.raises(ParseError) as err:
            parse_sigma_text(text)
        assert err.value.line == line


def test_load_solution_expressions():
    assert load_solution("identity(3)") == identity_solution(3)
    assert load_solution("irretractable(2)") == irretractable_solution(2)
    assert load_solution("canonical(3,1,1)") == canonical_solution(3, 1, 1)
    assert load_solution("canonical(3, 1, 1)") == canonical_solution(3, 1, 1)
    with pytest.raises(ParseError):
        load_solution("mystery(1)")
    # an empty argument, or two integers without a comma, is malformed
    for ref in ("canonical(1,,2,3)", "canonical(1 2 3)", "identity(,5)", "identity(5,)"):
        with pytest.raises(ParseError, match="not comma-separated integers"):
            load_solution(ref)
        assert run(["classify", ref]) == 2


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_verify_holds(capsys):
    assert run(["verify", "--axioms", "pe,involutive", "canonical(3,1,1)"]) == 0
    out = capsys.readouterr().out
    assert "pe: holds" in out and "involutive: holds" in out


def test_verify_fails(capsys):
    assert run(["verify", "--axioms", "pe", "canonical(2,0,0)"]) == 0
    assert run(["verify", "--axioms", "involutive", f"{GOLDEN}/cycle_1432_c2.solution"]) == 1
    assert "FAILS" in capsys.readouterr().out


def test_verify_reports_pentagon_witness(tmp_path, capsys):
    from pentagon import SolutionTable

    flip = tmp_path / "flip.solution"
    flip.write_text(emit_solution(SolutionTable(2, ((0, 0), (1, 0), (0, 1), (1, 1)))))
    assert run(["verify", "--axioms", "pe", str(flip)]) == 1
    assert "failing triple (0, 1, 0)" in capsys.readouterr().out


def test_verify_without_a_certificate_takes_the_old_checks(capsys):
    # an order-4 solution is no involution, so it has no certificate
    cycle = f"{GOLDEN}/cycle_1432_c2.solution"
    assert run(["verify", "--axioms", "involutive,pe,rpe", cycle]) == 1
    assert capsys.readouterr().out == "involutive: FAILS\npe: holds\nrpe: FAILS\n"


def test_the_certificate_answers_at_512_without_the_cubic_checks(
    tmp_path, monkeypatch, capsys
):
    # the wide route: above 256 elements rows are tuples and lanes 16-bit
    s = relabel(canonical_solution(2, 4, 4), random.Random(512).sample(range(512), 512))
    path = tmp_path / "c244.solution"
    path.write_text(emit_solution(s))

    def refuse(*args):
        raise AssertionError("an n^3 check ran")

    for module, name in ((core, "pentagon_witness"), (core, "check_pentagon"),
                         (analysis, "check_pentagon"), (cli, "pentagon_witness")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setitem(cli.AXIOM_CHECKS, "pe", refuse)

    def answer(*argv):
        assert run(["--json", *argv, str(path)]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    assert answer("classify") == {"x_size": 2, "a_dim": 4, "g_dim": 4}
    assert answer("verify", "--axioms", "pe,involutive") == {
        "size": 512, "axioms": {"pe": True, "involutive": True}
    }
    retracted = answer("retract")
    assert retracted["class_sizes"] == [32] * 16
    quotient = parse_solution(retracted["solution"])
    assert analysis.classify(quotient) == Decomposition(1, 4, 0)


def test_verify_unknown_axiom():
    assert run(["verify", "--axioms", "sparkle", "identity(2)"]) == 2


def test_verify_without_axioms_exits_2(capsys):
    # an empty list checks nothing, which must not read as "holds"
    for axioms in ("", " , "):
        assert run(["verify", "--axioms", axioms, "identity(2)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no axioms given" in captured.err


def test_verify_missing_file():
    assert run(["verify", "no/such/file.solution"]) == 2


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_construct_and_classify(tmp_path, capsys):
    out = tmp_path / "s.solution"
    assert run(["construct", "--x", "3", "--a", "1", "--g", "1", "-o", str(out)]) == 0
    assert out.read_text() == emit_solution(canonical_solution(3, 1, 1))
    capsys.readouterr()
    assert run(["classify", str(out)]) == 0
    assert "(x=3, a=1, g=1)" in capsys.readouterr().out


def test_construct_with_sigma(tmp_path):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("0 1\n1 0\n")
    out = tmp_path / "ext.solution"
    assert run(["construct", "--x", "2", "--a", "1", "--sigma", str(sigma), "-o", str(out)]) == 0
    assert run(["verify", "--axioms", "pe,involutive", str(out)]) == 0


def test_product_command(tmp_path):
    out = tmp_path / "p.solution"
    assert run(["product", "identity(2)", "canonical(1,0,1)", "-o", str(out)]) == 0
    parsed = parse_solution(out.read_text())
    assert parsed.size == 4


def test_retract_command(tmp_path, capsys):
    assert run(["retract", "canonical(3,1,1)"]) == 0
    out = capsys.readouterr().out
    assert "retract size 2" in out
    assert run(["retract", f"{GOLDEN}/cycle_1432_c2.solution"]) == 2


def test_classify_names_itself_on_a_non_solution(capsys):
    # the order-4 cycle solution is not involutive
    assert run(["classify", f"{GOLDEN}/cycle_1432_c2.solution"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: classify requires an involutive table\n"


def test_isomorphic_command(capsys):
    assert run(["isomorphic", "canonical(2,1,0)", "canonical(2,1,0)"]) == 0
    assert run(["isomorphic", "identity(2)", "irretractable(1)"]) == 1
    assert run(["isomorphic", "identity(2)", "identity(3)"]) == 1
    capsys.readouterr()
    # every size searches, and a solution maps to itself by the identity
    for expr, n in (("canonical(1,2,1)", 8), ("canonical(9,0,0)", 9),
                    ("canonical(3,1,1)", 12)):
        assert run(["--json", "isomorphic", expr, expr]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == {"isomorphic": True, "bijection": list(range(n))}
    # the search has no size option
    assert run(["isomorphic", "identity(2)", "identity(2)", "--max-size", "3"]) == 2


def test_isomorphic_answers_the_largest_expression(capsys):
    # on identity(n) no decision forces another, so the search is n
    # decisions deep: 1024 is past Python's default recursion limit
    assert run(["--json", "isomorphic", "identity(1024)", "identity(1024)"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == {"isomorphic": True, "bijection": list(range(1024))}


def test_isomorphic_exits_3_when_the_work_bound_runs_out(tmp_path, monkeypatch):
    paths = {}
    for n in (8, 12):
        paths[n] = tmp_path / f"changed{n}.solution"
        paths[n].write_text(emit_solution(identity_with_one_cell_changed(n)))
    # size 8 always finishes under the real bound
    assert run(["isomorphic", "identity(8)", str(paths[8])]) == 1
    monkeypatch.setattr(analysis, "_ISO_WORK_BUDGET", 4096)
    assert run(["isomorphic", "identity(12)", str(paths[12])]) == 3


def test_enumerate_command(capsys):
    assert run(["enumerate", "--size", "2", "--up-to-iso"]) == 0
    assert "3 classes" in capsys.readouterr().out
    assert run(["enumerate", "--size", "3", "--naive"]) == 2
    capsys.readouterr()
    assert run(["enumerate", "--size", "3"]) == 0
    assert "1 tables" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_enumerate_modes_report_one_count(capsys, workers):
    for n in range(1, 7):
        argv = ["enumerate", "--size", str(n), "--workers", workers]
        assert run(argv) == 0
        count = len(enumerate_pruned(n))
        assert capsys.readouterr().out == f"size {n}: {count} tables\n"
        counts = []
        for mode in ([], ["--up-to-iso"]):
            assert run(["--json"] + argv + mode) == 0
            counts.append(json.loads(capsys.readouterr().out)["results"]["raw_count"])
        assert counts == [count, count]


def test_enumerate_refuses_fewer_than_one_worker(capsys):
    for workers in ("0", "-4"):
        assert run(["enumerate", "--size", "4", "--workers", workers]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err


def test_enumerate_starts_no_process_for_workers(monkeypatch, capsys):
    # --workers is accepted for compatibility: the search runs in this
    # process, so a Process that cannot start changes nothing
    import multiprocessing

    def no_process(*args, **kwargs):
        raise AssertionError("a process was created")

    monkeypatch.setattr(multiprocessing, "Process", no_process)
    results = []
    for workers in ("2", "1"):
        argv = ["--json", "enumerate", "--size", "5", "--up-to-iso",
                "--workers", workers]
        assert run(argv) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


def test_enumerate_refuses_a_non_finite_budget(capsys):
    # nan and inf would run the whole search unbudgeted and put values
    # that are not JSON into the report's inputs; a negative budget can
    # never be met
    for budget in ("nan", "inf", "-inf", "Infinity", "-5"):
        argv = ["--json", "enumerate", "--size", "6", "--up-to-iso"]
        assert run(argv + [f"--budget-ms={budget}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget_ms must be a finite number" in captured.err


def test_oversized_expression_rejected_before_building(capsys):
    # 10^10 and 2^80 cells: refused from the arguments alone, exit 2
    assert run(["verify", "identity(100000)"]) == 2
    assert run(["classify", "irretractable(40)"]) == 2
    assert "cells" in capsys.readouterr().err


def test_construct_and_product_refuse_oversized_tables(capsys):
    # 2^22, 2^(10^9) and 2^22 cells: refused before anything is built
    assert run(["construct", "--x", "1", "--g", "11"]) == 2
    assert run(["construct", "--x", "1", "--a", str(10**9)]) == 2
    assert run(["product", "identity(64)", "irretractable(5)"]) == 2
    assert capsys.readouterr().err.count("cells") == 3
    assert run(["construct", "--x", "1", "--a", "-1"]) == 2


def test_huge_integers_are_input_errors(tmp_path, capsys):
    # more digits than int() converts by default (4300)
    assert run(["classify", "identity(" + "9" * 5000 + ")"]) == 2
    huge = tmp_path / "huge.solution"
    huge.write_text(f"{HEADER}\nsize {'9' * 5000}\n0 0 0 0\n")
    assert run(["verify", str(huge)]) == 2
    assert capsys.readouterr().err.count("5000 digits is too long") == 2


def test_enumerate_budget_exit_code(capsys):
    assert run(["enumerate", "--size", "6", "--budget-ms", "30"]) == 3
    assert "budget exceeded" in capsys.readouterr().out


def test_sigma_search_command(capsys):
    assert run(["sigma-search", "--n", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["1 2 3 4", "2 1 4 3", "4 1 2 3", "4 3 2 1"]
    assert "4 permutations" in out[4]


def test_growth_command(capsys):
    assert run(["growth", "irretractable(1)", "--length", "6"]) == 0
    out = capsys.readouterr().out
    assert "series 1 2 2 2 2 2 2" in out
    assert "degree 1" in out
    assert "expected rank 1" in out


def test_growth_without_a_certificate_prints_no_rank_and_checks_no_law(
    tmp_path, monkeypatch, capsys
):
    # the rank line reads the certificate's x; on an involutive table that
    # fails the pentagon equation there is none, and no law is checked
    rng = random.Random(38)
    s = next(
        t for t in (oracles.random_involution_table(4, rng) for _ in range(50))
        if not core.check_pentagon(t)
    )
    assert core.check_involutive(s) and analysis.decompose(s) is None
    path = tmp_path / "involutive.solution"
    path.write_text(emit_solution(s))
    calls = []

    def spy(name, real):
        def checked(*args):
            calls.append(name)
            return real(*args)
        return checked

    for module, name in ((core, "check_involutive"), (core, "pentagon_witness"),
                         (analysis, "check_involutive"), (analysis, "check_pentagon")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    assert run(["growth", str(path), "--length", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("series 1 4 ") and "expected rank" not in out
    assert run(["--json", "growth", str(path), "--length", "3"]) == 0
    assert "expected_rank" not in json.loads(capsys.readouterr().out)["results"]
    assert calls == []


def test_growth_budget(capsys):
    # identity(4) has 35 classes at length 4, so 140 nodes at length 5
    code = run(["growth", "identity(4)", "--length", "6", "--word-budget", "100"])
    assert code == 3
    # a negative budget is an input error; 0 is a budget spent at once
    assert run(["growth", "identity(2)", "--length", "3", "--word-budget", "-5"]) == 2
    assert run(["growth", "identity(2)", "--length", "3", "--word-budget", "0"]) == 3


def test_growth_length_is_capped_before_any_stratum(capsys):
    # the word budget bounds one stratum, not how many are closed
    started = time.monotonic()
    assert run(["growth", "identity(1)", "--length", "1000000000"]) == 2
    assert time.monotonic() - started < 5
    assert "exceeds the cap" in capsys.readouterr().err
    assert run(["growth", "identity(1)", "--length", "1000"]) == 0


def test_sigma_search_size_is_capped_before_any_permutation(capsys):
    # sigma-search is bounded by its output, refused before it is built
    started = time.monotonic()
    assert run(["sigma-search", "--n", "1000000"]) == 2
    assert time.monotonic() - started < 5
    assert "exceeds the cap" in capsys.readouterr().err
    assert run(["sigma-search", "--n", "4"]) == 0


def test_order_command(tmp_path, capsys):
    assert run(["order", f"{GOLDEN}/cycle_1432_c2.solution"]) == 0
    assert "order 4" in capsys.readouterr().out
    # a table that is not a bijection has no order
    from pentagon import SolutionTable

    path = tmp_path / "constant.solution"
    path.write_text(emit_solution(SolutionTable(2, ((0, 0),) * 4)))
    assert run(["order", str(path)]) == 1
    assert "not bijective" in capsys.readouterr().out
    assert run(["--json", "order", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == {"order": None}


def test_order_command_is_bounded_by_the_table(tmp_path, capsys):
    # the order is about 3e14, so stepping powers would run for hours;
    # the answer comes from the cycle type instead
    path = tmp_path / "primes.solution"
    path.write_text(emit_solution(prime_cycles_table()))
    started = time.monotonic()
    assert run(["order", str(path)]) == 0
    assert time.monotonic() - started < 5
    assert "order 304250263527210" in capsys.readouterr().out


def test_json_report_schema(capsys):
    assert run(["--json", "classify", "canonical(3,1,1)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"command", "inputs", "results", "elapsed_ms", "version"}
    assert payload["command"] == "classify"
    assert payload["results"] == {"x_size": 3, "a_dim": 1, "g_dim": 1}


def test_reports_byte_identical_modulo_elapsed(capsys):
    def grab(argv):
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("elapsed_ms")
        return json.dumps(payload, sort_keys=True)

    first = grab(["--json", "enumerate", "--size", "3", "--up-to-iso"])
    second = grab(["--json", "enumerate", "--size", "3", "--up-to-iso"])
    assert first == second
    with_workers = grab(
        ["--json", "enumerate", "--size", "3", "--up-to-iso", "--workers", "2"]
    )
    base = json.loads(first)
    alt = json.loads(with_workers)
    assert base["results"] == alt["results"]


def test_one_parser_serves_every_run(capsys):
    # the parser is built once per process; a value given to one run must
    # not leak into a later run of the same or another subcommand
    sequence = [
        ["--json", "growth", "identity(2)", "--length", "3",
         "--word-budget", "100"],
        ["--json", "growth", "identity(2)", "--length", "3"],
        ["--json", "verify", "canonical(1,1,0)"],
        ["--json", "classify", "canonical(3,1,1)"],
    ]
    want_inputs = [
        {"solution": "identity(2)", "length": 3, "word_budget": 100},
        {"solution": "identity(2)", "length": 3,
         "word_budget": DEFAULT_WORD_BUDGET},
        {"solution": "canonical(1,1,0)", "axioms": "pe"},
        {"solution": "canonical(3,1,1)"},
    ]
    rounds = []
    for _ in range(2):
        assert run(["--json", "enumerate", "--up-to-iso"]) == 2
        assert "--size" in capsys.readouterr().err
        reports = []
        for argv in sequence:
            assert run(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            reports.append((payload["inputs"], payload["results"]))
        rounds.append(reports)
    assert rounds[0] == rounds[1]
    assert [inputs for inputs, _ in rounds[0]] == want_inputs
    assert _build_parser() is _build_parser()


def test_malformed_file_never_raises(tmp_path, capsys):
    bad = tmp_path / "bad.solution"
    bad.write_text("pentagon-solution v1\nsize 2\n0 0 9 9\n")
    assert run(["verify", str(bad)]) == 2
    bad.write_bytes(f"{HEADER}\nsize 1\n0 0 0 \u00e9\n".encode())
    assert run(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("error") == 2


# ---------------------------------------------------------------------------
# run() is total: every input ends in an exit code, never an exception

COMMANDS = [
    ["verify", "--axioms", "pe,involutive"],
    ["classify"],
    ["retract"],
    ["order"],
    ["growth", "--length", "3"],
    ["isomorphic", "identity(2)"],
    ["product", "identity(2)"],
]


def _argument(small):
    """A small argument or one past the cell cap, so every run is fast."""
    return st.one_of(
        st.integers(0, small), st.integers(MAX_EXPRESSION_CELLS, 10**30)
    )


def _expression(name, args, sep, frame):
    return frame.format(f"{name}({sep.join(map(str, args))})")


EXPRESSIONS = st.one_of(
    *(
        st.builds(
            _expression,
            st.just(name),
            st.lists(_argument(small), max_size=4),
            st.sampled_from([",", ", ", " ", ",,"]),
            st.sampled_from(["{}", " {} ", "{})", "x{}"]),
        )
        for name, small in [
            ("identity", 8),
            ("irretractable", 3),
            ("canonical", 1),
            ("mystery", 8),
        ]
    )
)

_TOKENS = st.one_of(
    st.integers(-1, 3).map(str), st.sampled_from(["x", "1.5", "\u0663", ""])
)


def _solution_file(header, size, rows):
    lines = [header, f"size {size}"] + [" ".join(r) for r in rows]
    return ("\n".join(lines) + "\n").encode()


SOLUTION_FILES = st.one_of(
    st.builds(
        _solution_file,
        st.sampled_from([HEADER, "pentagon-solution v2", ""]),
        st.one_of(
            st.integers(-1, 3).map(str),
            st.integers(MAX_EXPRESSION_CELLS, 10**30).map(str),
            st.text(max_size=3),
        ),
        st.lists(st.lists(_TOKENS, max_size=5), max_size=10),
    ),
    st.binary(max_size=64),
)


@given(command=st.sampled_from(COMMANDS), ref=EXPRESSIONS, as_json=st.booleans())
@example(command=["classify"], ref="identity(" + "9" * 5000 + ")", as_json=False)
def test_run_is_total_on_expressions(command, ref, as_json):
    code = run((["--json"] if as_json else []) + command + [ref])
    assert code in (0, 1, 2, 3)


@given(command=st.sampled_from(COMMANDS), body=SOLUTION_FILES)
@example(command=["verify"], body=f"{HEADER}\nsize {'9' * 5000}\n".encode())
def test_run_is_total_on_solution_files(command, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.solution")
        with open(path, "wb") as fh:
            fh.write(body)
        code = run(command + [path])
    assert code in (0, 1, 2, 3)
