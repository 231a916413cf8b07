"""Command-line surface, file formats, and report emission.

Exit codes: 0 success or property holds, 1 property fails, 2 usage or
input error, 3 resource budget exceeded.

Solution file format (byte exact):

    pentagon-solution v1
    size <n>
    <i> <j> <k> <l>        one row per input pair, n^2 rows

Rows mean s(i, j) = (k, l) with 0-based indices; emission orders them
lexicographically in (i, j) with single spaces and a trailing newline.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time

from . import __version__
from .core import (
    BudgetError,
    SolutionTable,
    ValidationError,
    check_bijective,
    check_cocommutative,
    check_commutative,
    check_involutive,
    check_pentagon,
    check_reversed_pentagon,
    order_of,
    pentagon_witness,
    product_solution,
)
from .constructors import (
    Decomposition,
    SigmaMap,
    canonical_solution,
    decomposition_solution,
    identity_solution,
    irretractable_solution,
    sigma_search,
)
from .analysis import (
    classify,
    decompose,
    find_isomorphism,
    retract,
)
from .enumeration import count_up_to_iso
from .monoid import (
    DEFAULT_WORD_BUDGET,
    estimate_growth_degree,
    growth_series,
)

HEADER = "pentagon-solution v1"

AXIOM_CHECKS = {
    "pe": check_pentagon,
    "rpe": check_reversed_pentagon,
    "involutive": check_involutive,
    "bijective": check_bijective,
    "commutative": check_commutative,
    "cocommutative": check_cocommutative,
}


class ParseError(ValueError):
    """Input text does not conform to a file format; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_solution(text: str) -> SolutionTable:
    """The table a solution file's text describes.

    The canonical layout, which `emit_solution` and `construct -o` write,
    is read by whole table rows.  Any other layout the format allows
    (rows in any order, other whitespace, leading zeros or signs) is read
    line by line, giving the same table and the same errors.
    """
    table = _parse_rows(text)
    return table if table is not None else _parse_lines(text)


def _parse_rows(text: str) -> SolutionTable | None:
    """The canonical layout, one table row of n lines at a time; None when
    any part of the text differs from it."""
    count = text.count("\n")  # the line count of a canonical text
    n = math.isqrt(max(count - 2, 0))
    head = f"{HEADER}\nsize {n}\n"
    if n < 1 or n * n + 2 != count or not text.startswith(head):
        return None
    names = [str(v) for v in range(n)]
    get = dict(zip(names, range(n))).__getitem__
    block = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+ [0-9]+\n){%d}" % n)
    entries: list[tuple[int, int]] = []
    pos = len(head)
    for name in names:
        m = block.match(text, pos)
        if m is None:
            return None
        pos = m.end()
        t = m.group().split()
        if t[0::4].count(name) != n or t[1::4] != names:
            return None
        try:
            entries += zip(map(get, t[2::4]), map(get, t[3::4]))
        except KeyError:  # k or l out of range, or not in canonical decimal
            return None
    if pos != len(text):
        return None
    return SolutionTable(n, tuple(entries))


def _parse_lines(text: str) -> SolutionTable:
    """Any layout the format allows, one line at a time; the source of
    every parse error and its line number."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"expected header {HEADER!r}", 1)
    if len(lines) < 2:
        raise ParseError("missing size line", 2)
    m = re.fullmatch(r"size (\d+)", lines[1].strip())
    if not m:
        raise ParseError("expected 'size <n>'", 2)
    n = _parse_int(m.group(1), 2)
    if n < 1:
        raise ParseError("size must be at least 1", 2)

    entries: dict[int, tuple[int, int]] = {}  # keyed by i * n + j
    for lineno, raw in enumerate(lines[2:], start=3):
        try:
            i, j, k, l = map(int, raw.split())
        except ValueError:
            raise ParseError("expected four integers '<i> <j> <k> <l>'", lineno)
        # k and l are range-checked once, by SolutionTable, naming s(i, j)
        if not (0 <= i < n and 0 <= j < n):
            v = j if 0 <= i < n else i
            raise ParseError(f"index {v} out of range for size {n}", lineno)
        p = i * n + j
        if p in entries:
            raise ParseError(f"duplicate row for pair ({i}, {j})", lineno)
        entries[p] = (k, l)

    if len(entries) != n * n:
        missing = divmod(next(p for p in range(n * n) if p not in entries), n)
        raise ParseError(
            f"missing row for pair {missing}; got {len(entries)} of {n * n}",
            len(lines) + 1,
        )
    return SolutionTable(n, tuple(entries[p] for p in range(n * n)))


def _parse_int(digits: str, line: int) -> int:
    """int() of a digit string, as a ParseError when it has too many digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", line)


def emit_solution(s: SolutionTable) -> str:
    n = s.size
    lines = [HEADER, f"size {n}"]
    for i in range(n):
        for j in range(n):
            k, l = s.apply(i, j)
            lines.append(f"{i} {j} {k} {l}")
    return "\n".join(lines) + "\n"


def parse_sigma_text(text: str) -> SigmaMap:
    """One line per a in 0..2^r - 1, each the images of 0..m-1 (m from line 1)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            raise ParseError("blank line in sigma file", lineno)
        try:
            row = tuple(int(p) for p in raw.split())
        except ValueError:
            raise ParseError("expected a list of integers", lineno)
        m = len(rows[0]) if rows else len(row)
        if sorted(row) != list(range(m)):
            raise ParseError(f"not a permutation of 0..{m - 1}", lineno)
        rows.append(row)
    if not rows:
        raise ParseError("empty sigma file", 1)
    count = len(rows)
    a_dim = count.bit_length() - 1
    if 1 << a_dim != count:
        raise ParseError(
            f"sigma file must have a power-of-two number of lines, got {count}",
            count,
        )
    return SigmaMap(len(rows[0]), a_dim, tuple(rows))


_EXPR = re.compile(r"([a-z]+)\(([0-9, ]*)\)")

# Largest table an expression, construct or product may build, in cells.
MAX_EXPRESSION_CELLS = 1 << 20


def _refuse_oversized(what: str, n: int) -> None:
    if n * n > MAX_EXPRESSION_CELLS:
        raise ValidationError(f"{what} has more than {MAX_EXPRESSION_CELLS} cells")


# name -> (constructor, arity, carrier size from the arguments).  Exponents
# are clipped at 21, already past the cap, so a huge one builds no huge int.
# Each constructor is looked up by its global name when called, so a
# rebinding of that name (a tracer's wrapper, say) is seen.
_CONSTRUCTORS = {
    "identity": (lambda n: identity_solution(n), 1, lambda n: n),
    "irretractable":
        (lambda r: irretractable_solution(r), 1, lambda r: 1 << min(r, 21)),
    "canonical": (lambda x, a, g: canonical_solution(x, a, g), 3,
                  lambda x, a, g: x << min(a + g, 21)),
}


def load_solution(ref: str) -> SolutionTable:
    """A solution file path, or an inline expression.

    Expressions: identity(n), irretractable(r), canonical(x,a,g); the
    arguments are integers separated by commas, with optional spaces.
    """
    if os.path.exists(ref):
        with open(ref, encoding="ascii") as fh:
            return parse_solution(fh.read())
    m = _EXPR.fullmatch(ref.strip())
    if not m:
        raise ParseError(f"no such file and not an expression: {ref!r}", 1)
    parts = [p.strip() for p in m.group(2).split(",")] if m.group(2).strip() else []
    if not all(p.isdigit() for p in parts):
        raise ParseError(f"arguments are not comma-separated integers: {ref!r}", 1)
    args = [_parse_int(p, 1) for p in parts]
    constructor, arity, size = _CONSTRUCTORS.get(m.group(1), (None, -1, None))
    if len(args) != arity:
        raise ParseError(f"unknown constructor expression: {ref!r}", 1)
    _refuse_oversized(ref.strip(), size(*args))
    return constructor(*args)


# ---------------------------------------------------------------------------
# report plumbing


class _Report:
    def __init__(self, command: str, inputs: dict, as_json: bool):
        self.payload = {
            "command": command,
            "inputs": inputs,
            "results": {},
            "elapsed_ms": 0,
            "version": __version__,
        }
        self.as_json = as_json
        self.lines: list[str] = []
        self.started = time.monotonic()

    def say(self, text: str, **results) -> None:
        self.lines.append(text)
        self.payload["results"].update(results)

    def flush(self) -> None:
        self.payload["elapsed_ms"] = round(
            (time.monotonic() - self.started) * 1000, 3
        )
        if self.as_json:
            print(json.dumps(self.payload, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _write_or_print(text: str, path: str | None, report: _Report) -> None:
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        report.say(f"wrote {path}", output=path, solution=text)
    else:
        report.say(text.rstrip("\n"), solution=text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args, report: _Report) -> int:
    s = load_solution(args.solution)
    names = [a.strip() for a in args.axioms.split(",") if a.strip()]
    if not names:
        raise ValidationError("no axioms given")
    unknown = [a for a in names if a not in AXIOM_CHECKS]
    if unknown:
        raise ValidationError(f"unknown axioms: {', '.join(unknown)}")
    # a certificate proves "pe" and "involutive"; without one, "pe" reads
    # its verdict off the witness, which a failure prints
    proved = {"pe", "involutive"}.intersection(names)
    if proved and decompose(s) is None:
        proved = set()
    witness = pentagon_witness(s) if "pe" in names and not proved else None
    verdicts = {
        a: a in proved or (witness is None if a == "pe" else AXIOM_CHECKS[a](s))
        for a in names
    }
    for a, ok in verdicts.items():
        report.say(f"{a}: {'holds' if ok else 'FAILS'}")
    if witness is not None:
        x, y, z = witness
        report.say(
            f"  first failing triple ({x}, {y}, {z})", pe_witness=[x, y, z]
        )
    report.payload["results"].update(size=s.size, axioms=verdicts)
    return 0 if all(verdicts.values()) else 1


def _cmd_construct(args, report: _Report) -> int:
    sigma = None
    if args.sigma:
        with open(args.sigma, encoding="ascii") as fh:
            sigma = parse_sigma_text(fh.read())
    # Decomposition rejects negative dimensions before the size rule shifts
    dec = Decomposition(args.x, args.a, args.g, sigma)
    size = _CONSTRUCTORS["canonical"][2]
    _refuse_oversized("construct", size(args.x, args.a, args.g))
    s = decomposition_solution(dec)
    report.payload["results"].update(size=s.size)
    _write_or_print(emit_solution(s), args.output, report)
    return 0


def _cmd_product(args, report: _Report) -> int:
    left, right = load_solution(args.left), load_solution(args.right)
    _refuse_oversized("product", left.size * right.size)
    s = product_solution(left, right)
    report.payload["results"].update(size=s.size)
    _write_or_print(emit_solution(s), args.output, report)
    return 0


def _cmd_retract(args, report: _Report) -> int:
    res = retract(load_solution(args.solution))
    report.say(
        f"retract size {res.quotient.size}, class size {res.class_sizes[0]}",
        quotient_size=res.quotient.size,
        class_sizes=list(res.class_sizes),
        class_of=list(res.class_of),
    )
    _write_or_print(emit_solution(res.quotient), args.output, report)
    return 0


def _cmd_classify(args, report: _Report) -> int:
    c = classify(load_solution(args.solution))
    report.say(
        f"classification (x={c.x_size}, a={c.a_dim}, g={c.g_dim})",
        x_size=c.x_size,
        a_dim=c.a_dim,
        g_dim=c.g_dim,
    )
    return 0


def _cmd_isomorphic(args, report: _Report) -> int:
    s, t = load_solution(args.left), load_solution(args.right)
    if s.size != t.size:
        report.say("not isomorphic: sizes differ", isomorphic=False)
        return 1
    f = find_isomorphism(s, t)
    if f is None:
        report.say("not isomorphic", isomorphic=False)
        return 1
    report.say(
        f"isomorphic via {' '.join(map(str, f.images))}",
        isomorphic=True,
        bijection=list(f.images),
    )
    return 0


def _cmd_enumerate(args, report: _Report) -> int:
    rep = count_up_to_iso(args.size, budget_ms=args.budget_ms, workers=args.workers)
    if not args.up_to_iso:
        report.say(f"size {args.size}: {rep.raw_count} tables", raw_count=rep.raw_count)
        return 0
    triples = [list(t) for t in rep.class_triples]
    report.say(
        f"size {args.size}: {rep.raw_count} tables, {rep.class_count} classes",
        raw_count=rep.raw_count,
        class_count=rep.class_count,
        class_triples=triples,
        search_nodes=rep.nodes,
    )
    for t in triples:
        report.lines.append(f"  class (x={t[0]}, a={t[1]}, g={t[2]})")
    return 0


def _cmd_sigma_search(args, report: _Report) -> int:
    perms = sigma_search(args.n)
    found = [" ".join(str(v + 1) for v in p) for p in perms]
    for images in found:
        report.say(images)
    report.say(f"{len(perms)} permutations", count=len(perms), images=found)
    return 0


def _cmd_growth(args, report: _Report) -> int:
    s = load_solution(args.solution)
    series = growth_series(s, args.length, word_budget=args.word_budget)
    report.say(
        "series " + " ".join(map(str, series.counts)),
        counts=list(series.counts),
    )
    est = estimate_growth_degree(series)
    if est is None:
        report.say("degree inconclusive at this length", degree=None)
    else:
        report.say(
            f"degree {est.degree} (stable from length {est.onset})",
            degree=est.degree,
            onset=est.onset,
        )
    if (certificate := decompose(s)) is not None:
        rank = certificate[0].x_size
        report.say(f"expected rank {rank}", expected_rank=rank)
    return 0


def _cmd_order(args, report: _Report) -> int:
    m = order_of(load_solution(args.solution))
    if m is None:
        report.say("no order: the table is not bijective", order=None)
        return 1
    report.say(f"order {m}", order=m)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built on the first run, then reused: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentagon",
        description="Finite set-theoretic solutions of the Pentagon Equation.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    sol_help = "solution file, or identity(n) / irretractable(r) / canonical(x,a,g)"

    p = sub.add_parser("verify", help="check axioms on a solution table")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("solution", help=sol_help)
    p.add_argument(
        "--axioms",
        default="pe",
        help=f"comma list from: {', '.join(AXIOM_CHECKS)}",
    )

    p = sub.add_parser("construct", help="build a solution from (x, a, g, sigma)")
    p.set_defaults(handler=_cmd_construct)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--g", type=int, default=0)
    p.add_argument("--sigma", help="file with one permutation line per a value")
    p.add_argument("--output", "-o")

    p = sub.add_parser("product", help="product of two solutions")
    p.set_defaults(handler=_cmd_product)
    p.add_argument("left", help=sol_help)
    p.add_argument("right", help=sol_help)
    p.add_argument("--output", "-o")

    p = sub.add_parser("retract", help="quotient by equal theta maps")
    p.set_defaults(handler=_cmd_retract)
    p.add_argument("solution", help=sol_help)
    p.add_argument("--output", "-o")

    p = sub.add_parser("classify", help="classification triple (x, a, g)")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("solution", help=sol_help)

    p = sub.add_parser("isomorphic", help="decide isomorphism of two solutions")
    p.set_defaults(handler=_cmd_isomorphic)
    p.add_argument("left", help=sol_help)
    p.add_argument("right", help=sol_help)

    p = sub.add_parser("enumerate", help="all involutive solutions of a size")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("sigma-search", help="permutations usable by the cycle family")
    p.set_defaults(handler=_cmd_sigma_search)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("growth", help="structure-monoid growth series")
    p.set_defaults(handler=_cmd_growth)
    p.add_argument("solution", help=sol_help)
    p.add_argument("--length", type=int, required=True)
    p.add_argument(
        "--word-budget",
        type=int,
        default=DEFAULT_WORD_BUDGET,
        help="most nodes (classes at length L-1 times letters) in one stratum;"
        " a stratum takes about 41 bytes per node, so about 0.7 GB at the"
        " default",
    )

    p = sub.add_parser("order", help="order of the table as a map on pairs")
    p.set_defaults(handler=_cmd_order)
    p.add_argument("solution", help=sol_help)

    return parser


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    skip = ("command", "handler", "json")  # the handler is a function
    inputs = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    report = _Report(args.command, inputs, args.json)
    try:
        code = args.handler(args, report)
    except BudgetError as exc:
        report.say(f"budget exceeded: {exc}", budget_exceeded=True)
        report.flush()
        return 3
    except (ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.flush()
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
