"""The package as other programs reach it: the benchmark's tracer names
package functions, and `python -m pentagon` runs the CLI."""

import ast
import importlib
import inspect
import io
import json
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys
import tokenize

import pentagon
from pentagon import SolutionTable, canonical_solution, cli, enumeration
from pentagon.cli import run

ROOT = pathlib.Path(__file__).parent.parent

# run_path compiles the source without writing a bytecode cache under bench/
SPANS = runpy.run_path(str(ROOT / "bench" / "spans.py"))


def test_every_traced_function_resolves():
    for span, home, attr in SPANS["TRACED"]:
        module = importlib.import_module(f"pentagon.{home}")
        assert callable(getattr(module, attr, None)), (span, home, attr)


def test_every_traced_module_imports():
    for suffix in SPANS["PACKAGE_MODULES"]:
        importlib.import_module("pentagon" + suffix)


def test_tracer_reads_workers_by_position_and_by_keyword():
    # the tracer looks for `workers` at index 2 or by keyword; the search
    # takes (n, budget_ms) only, so every call it sees records its
    # default of 1, by position and by keyword alike
    params = inspect.signature(enumeration.enumerate_pruned).parameters
    assert list(params) == ["n", "budget_ms"]
    facts = SPANS["_facts"]
    name = "enumeration.enumerate_pruned"
    assert facts(name, (4,), {}, [])["workers"] == 1
    assert facts(name, (4, None), {}, [])["workers"] == 1
    assert facts(name, (4,), {"budget_ms": 1000}, [])["workers"] == 1


def test_module_entry_point_runs_the_cli(capsys):
    # a real interpreter runs __main__.py with the same results as `run`
    argv = ["--json", "enumerate", "--size", "4", "--up-to-iso", "--workers", "2"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pentagon", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert run(argv) == 0
    in_process = json.loads(capsys.readouterr().out)["results"]
    assert json.loads(done.stdout)["results"] == in_process


def test_canonical_layout_is_read_by_rows(monkeypatch):
    # users' `-o` files and the benchmark's inputs share one layout, and the
    # row reader takes it whole: the line reader is never reached
    def line_reader(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(cli, "_parse_lines", line_reader)
    s = canonical_solution(4, 2, 2)
    assert cli.parse_solution(cli.emit_solution(s)) == s
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    n, cells = workloads["relabel_table"](
        workloads["canonical_table"](2, 1, 1), [5, 0, 7, 2, 6, 1, 3, 4]
    )
    text = workloads["emit_table"]((n, cells))
    assert cli.parse_solution(text) == SolutionTable(n, cells)


def test_readme_command_examples_run(tmp_path, monkeypatch):
    # every `pentagon ...` line of the "Command line" block, in order,
    # since later lines read the files earlier ones write
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = [ln for ln in block.splitlines() if ln.startswith("pentagon ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sigma.txt").write_text("0 1\n1 0\n")
    for line in commands:
        assert run(shlex.split(line)[1:]) == 0, line


# a comment opens with a value when it starts with a literal or a call
VALUE_COMMENT = re.compile(r"# ((True|False|None|-?\d|[\[({'\"]|[A-Z]\w*\().*)")


def test_readme_library_tour_runs():
    # every line of the "Library tour" block, in order; where the comment
    # opens with a value, the line's value must print as that value
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```")[1]
    assert block.startswith("python\n")
    namespace = {}
    checked = []
    for line in block.splitlines()[1:]:
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((tok for tok in tokens if tok.type == tokenize.COMMENT), None)
        code = line[: comment.start[1]] if comment else line
        try:
            expr = compile(code.strip(), "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expr, namespace)
        quoted = comment and VALUE_COMMENT.match(comment.string)
        if quoted:
            shown = repr(value)
            assert re.match(re.escape(shown) + r"($|[ ,])", quoted[1]), (line, shown)
            checked.append(code.strip())
    assert "pg.classify(s)" in checked


def test_readme_api_list_matches_the_package():
    # the paragraph from "Solution families:" to "Monoid: ..." names only
    # what the package exports, and names every analysis export
    text = (ROOT / "README.md").read_text()
    start = text.index("Solution families:")
    paragraph = text[start:text.index("\n\n", start)]
    assert "Monoid:" in paragraph
    named = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))
    assert named
    assert sorted(n for n in named if not hasattr(pentagon, n)) == []
    tree = ast.parse((ROOT / "src" / "pentagon" / "__init__.py").read_text())
    exported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "analysis"
        for alias in node.names
    }
    assert exported
    assert sorted(exported - named) == []


def test_readme_quotes_the_search_node_counts():
    # README wraps its lines, so whitespace is collapsed before comparing
    text = " ".join((ROOT / "README.md").read_text().split())
    for n in (5, 6, 7):
        quoted = f"{enumeration.count_up_to_iso(n).nodes:,} at size {n}"
        assert quoted in text, quoted


def test_expression_builders_are_reached_by_name(monkeypatch):
    # the tracer rebinds module attributes, so `load_solution` must look
    # each builder up when it runs, not hold the object from import time
    calls = []
    for name in ("canonical_solution", "identity_solution", "irretractable_solution"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    cli.load_solution("canonical(2,1,0)")
    cli.load_solution("identity(3)")
    cli.load_solution("irretractable(2)")
    assert sorted(calls) == [
        "canonical_solution", "identity_solution", "irretractable_solution"
    ]


def test_the_package_imports_only_the_standard_library():
    # absolute imports only: relative ones stay inside the package.  Every
    # command runs in the calling process, so nothing that starts another
    # process or thread is imported, at the top or inside a function
    starters = {"multiprocessing", "subprocess", "threading", "concurrent"}
    for path in sorted((ROOT / "src" / "pentagon").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "pentagon", (
                    path.name, name)
                assert top not in starters, (path.name, name)


def test_only_core_knows_the_row_format():
    # bytes or tuple rows, their lookup tables and their lanes are built
    # in core alone, which `_compose_rows` and `_lanes` hand out; monoid's
    # arrays are the growth strata's node stores, not rows
    for path in sorted((ROOT / "src" / "pentagon").glob("*.py")):
        if path.name == "core.py":
            continue
        text = path.read_text()
        tokens = ["_BYTE_RANGE", ".translate(", "from_bytes("]
        if path.name != "monoid.py":
            tokens.append("array(")
        for token in tokens:
            assert token not in text, (path.name, token)
