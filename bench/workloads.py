"""The benchmark's three workloads: seeded inputs, the operations of one
pass, and the expected outcome of every operation.

Expected outcomes never come from the package under test.  They follow
from how each input was built (a canonical representative of a known
class `(x, a, g)`, relabelled by a seeded permutation), from closed-form
counts written here by hand, or from this module's own slow oracles.
The solution tables themselves are built, relabelled and written by this
module, so setting up a workload calls nothing in `pentagon` except the
`SolutionTable` type that `normal_forms` takes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import permutations, product
from math import comb
from typing import Callable, Optional

# Tail percentile reported as op_tail_ms, per workload: the highest of p90,
# p99 and p99.9 with at least ten operations beyond it in a run of
# run_seconds at the seed commit.  A run makes at least enough passes for
# those ten (worker._min_passes).  It is fixed rather than worked out per
# run, so that a faster program, which fits more passes into a run, is
# compared at the same percentile as its parent.
TAIL_PERCENTILE = {"enum-search": 90, "verify-classify": 99, "monoid-growth": 90}

# Raw table counts and class counts of sizes 1..5 (the paper's counts).
RAW_COUNT = {1: 1, 2: 5, 3: 1, 4: 57, 5: 1}
CLASS_COUNT = {1: 1, 2: 3, 3: 1, 4: 6, 5: 1}



# ---------------------------------------------------------------------------
# tables, built and checked here without the package


Table = tuple[int, tuple[tuple[int, int], ...]]  # (size, row-major entries)


def canonical_table(x: int, a: int, g: int) -> Table:
    """Representative of class (x, a, g) on X x A x G, indices row-major.

    s((x,a,g),(y,b,h)) = ((x, a, g+h), (y, a+b, h)) with A = F_2^a and
    G = F_2^g, which is the paper's normal form of the class.
    """
    am, gm = 1 << a, 1 << g
    n = x * am * gm
    cells = []
    for i in range(n):
        xa, gi = divmod(i, gm)
        ai = xa % am
        for j in range(n):
            yb, h = divmod(j, gm)
            y, b = divmod(yb, am)
            cells.append((xa * gm + (gi ^ h), (y * am + (ai ^ b)) * gm + h))
    return n, tuple(cells)


def irretractable_table(dim: int) -> Table:
    """t(x, y) = (x, x xor y) on bitmasks of length dim."""
    n = 1 << dim
    return n, tuple((x, x ^ y) for x in range(n) for y in range(n))


def relabel_table(t: Table, perm: list[int]) -> Table:
    """Transport along i -> perm[i]: t'(perm i, perm j) = (perm k, perm l)."""
    n, cells = t
    out = [None] * (n * n)
    for i in range(n):
        for j in range(n):
            k, l = cells[i * n + j]
            out[perm[i] * n + perm[j]] = (perm[k], perm[l])
    return n, tuple(out)


def emit_table(t: Table) -> str:
    n, cells = t
    rows = [f"{i} {j} {k} {l}" for (i, j), (k, l) in zip(product(range(n), repeat=2), cells)]
    return "pentagon-solution v1\nsize %d\n%s\n" % (n, "\n".join(rows))


def first_pentagon_failure(t: Table) -> Optional[list[int]]:
    """Least triple (x, y, z), lexicographically, where s23 s13 s12 != s12 s23.

    Each side is evaluated as maps on triples, straight from the equation.
    """
    n, cells = t

    def on(p: int, q: int, v: list[int]) -> list[int]:
        w = list(v)
        w[p], w[q] = cells[v[p] * n + v[q]]
        return w

    for x, y, z in product(range(n), repeat=3):
        v = [x, y, z]
        if on(1, 2, on(0, 2, on(0, 1, v))) != on(0, 1, on(1, 2, v)):
            return v
    return None


def is_isomorphism(f: list[int], s: Table, t: Table) -> bool:
    n, cs = s
    _, ct = t
    return sorted(f) == list(range(n)) and all(
        ct[f[i] * n + f[j]] == (f[k], f[l])
        for (i, j), (k, l) in zip(product(range(n), repeat=2), cs)
    )


def triples_of_size(n: int) -> list[list[int]]:
    """Every class (x, a, g) with x * 2^a * 2^g = n, in sorted order."""
    v2 = (n & -n).bit_length() - 1
    return sorted(
        [n >> (a + g), a, g] for a in range(v2 + 1) for g in range(v2 + 1 - a)
    )


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI invocation (`argv`, run with --json) or one library call."""

    label: str
    argv: Optional[list[str]] = None
    call: Optional[Callable] = None  # call(pentagon_module) -> results dict
    code: int = 0
    results: dict = field(default_factory=dict)  # must match exactly
    check: Optional[Callable[[dict], Optional[str]]] = None

    def verdict(self, code: int, results: Optional[dict]) -> Optional[str]:
        """None when the outcome is the expected one, else the reason."""
        if code != self.code:
            return f"{self.label}: exit {code}, expected {self.code}"
        if results is None:
            return f"{self.label}: no report"
        for key, want in self.results.items():
            if results.get(key) != want:
                return f"{self.label}: {key}={results.get(key)!r}, expected {want!r}"
        if self.check is not None:
            problem = self.check(results)
            if problem:
                return f"{self.label}: {problem}"
        return None


@dataclass
class Workload:
    name: str
    ops: list[Op]

    def pass_order(self, rng: random.Random) -> list[Op]:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops


def build(name: str, seed: int, input_dir: str) -> Workload:
    """Inputs of workload `name` for `seed`, written under `input_dir`."""
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, BUILDERS[name](rng, input_dir))


def _write(input_dir: str, stem: str, t: Table) -> str:
    path = os.path.join(input_dir, stem + ".solution")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit_table(t))
    return path


# -- enum-search --------------------------------------------------------------

# Per pass: sizes 1..3 once, size 4 ten times, size 5 once on one process and
# once on two.  Size 5 is most of the time; the size-4 runs carry the
# classify / find_isomorphism / canonical_form grouping.
SIZE4_PER_PASS = 10


def _enumerate_op(n: int, workers: int) -> Op:
    want = triples_of_size(n)

    def check(results: dict) -> Optional[str]:
        got = sorted(results.get("class_triples") or [])
        return None if got == want else f"class_triples {got}, expected {want}"

    argv = ["enumerate", "--size", str(n), "--up-to-iso"]
    if workers != 1:
        argv += ["--workers", str(workers)]
    return Op(
        label=f"enumerate size {n} workers {workers}",
        argv=argv,
        results={"raw_count": RAW_COUNT[n], "class_count": CLASS_COUNT[n]},
        check=check,
    )


def _enum_search(rng, input_dir) -> list[Op]:
    ops = [_enumerate_op(n, 1) for n in (1, 2, 3)]
    ops += [_enumerate_op(4, 1) for _ in range(SIZE4_PER_PASS)]
    ops += [_enumerate_op(5, 1), _enumerate_op(5, 2)]
    return ops


# -- verify-classify ------------------------------------------------------------

# Classes by carrier size.  Sizes up to 8 take the find_isomorphism route of
# `isomorphic`, larger ones the invariant route.  Pairs listed together are
# non-isomorphic classes of one size.
VERIFY_CLASSES = [
    ((2, 1, 0), (1, 1, 1)),
    ((4, 0, 0), (1, 0, 2)),
    ((2, 1, 1), (8, 0, 0)),
    ((1, 2, 1), (4, 0, 1)),
    ((12, 0, 0), (6, 1, 0)),
    ((6, 0, 1), (3, 2, 0)),
    ((3, 0, 2), (3, 1, 1)),
    ((8, 0, 1), (1, 3, 1)),
    ((2, 2, 2),),
    ((4, 2, 2),),
]


def _random_perm(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _near_miss(rng, t: Table) -> tuple[Table, list[int]]:
    """Swap the values of two seeded cells until the pentagon equation fails."""
    n, cells = t
    while True:
        p, q = rng.sample(range(n * n), 2)
        if cells[p] == cells[q]:
            continue
        swapped = list(cells)
        swapped[p], swapped[q] = cells[q], cells[p]
        bad = (n, tuple(swapped))
        witness = first_pentagon_failure(bad)
        if witness is not None:
            return bad, witness


def _expr(triple) -> str:
    return "canonical(%d,%d,%d)" % tuple(triple)


def _verify_classify(rng, input_dir) -> list[Op]:
    ops = []
    for group in VERIFY_CLASSES:
        files = {}
        for triple in group:
            x, a, g = triple
            base = canonical_table(x, a, g)
            n = base[0]
            stem = "c%d_%d_%d" % triple
            first = relabel_table(base, _random_perm(rng, n))
            second = relabel_table(base, _random_perm(rng, n))
            bad, witness = _near_miss(rng, first)
            f1 = _write(input_dir, stem + "_a", first)
            f2 = _write(input_dir, stem + "_b", second)
            fbad = _write(input_dir, stem + "_bad", bad)
            files[triple] = f1
            tag = "%s n=%d" % (_expr(triple), n)
            ops += [
                Op(f"verify {tag}", ["verify", "--axioms", "pe,involutive", f1],
                   results={"size": n, "axioms": {"pe": True, "involutive": True}}),
                Op(f"verify near-miss {tag}", ["verify", "--axioms", "pe", fbad], code=1,
                   results={"size": n, "axioms": {"pe": False}, "pe_witness": witness}),
                Op(f"classify {tag}", ["classify", f2],
                   results={"x_size": x, "a_dim": a, "g_dim": g}),
                Op(f"retract {tag}", ["retract", f1],
                   results={"quotient_size": 1 << a, "class_sizes": [n >> a] * (1 << a)}),
                Op(f"order {tag}", ["order", f2],
                   results={"order": 1 if a == g == 0 else 2}),
                _iso_op(f"isomorphic relabellings {tag}", f1, f2, first, second, True),
                _iso_op(f"isomorphic to expression {tag}", f2, _expr(triple), second, base, True),
            ]
        if len(group) == 2:
            left, right = group
            ops.append(_iso_op(
                f"isomorphic {_expr(left)} vs {_expr(right)}",
                files[left], _expr(right), None, None, False,
            ))
    return ops


def _iso_op(label, left, right, s, t, same: bool) -> Op:
    """`isomorphic left right`; s and t are the two tables when `same`."""

    def check(results: dict) -> Optional[str]:
        f = results.get("bijection")  # reported up to size 8 only
        if f is None or is_isomorphism(f, s, t):
            return None
        return f"bijection {f} is not an isomorphism"

    return Op(label, ["isomorphic", left, right], code=0 if same else 1,
              results={"isomorphic": same}, check=check if same else None)


# -- monoid-growth ---------------------------------------------------------------

NORMAL_FORM_LENGTH = 6


def _catalogue() -> list[tuple[Table, int]]:
    """Every involutive solution of sizes 1..4, with its class's x.

    Built as the orbits of the canonical representatives under relabelling;
    the orbit sizes must add up to the paper's raw counts.
    """
    out = []
    for n in (1, 2, 3, 4):
        seen = set()
        for x, a, g in triples_of_size(n):
            base = canonical_table(x, a, g)
            for perm in permutations(range(n)):
                t = relabel_table(base, list(perm))
                if t not in seen:
                    seen.add(t)
                    out.append((t, x))
        if len(seen) != RAW_COUNT[n]:
            raise RuntimeError(f"catalogue of size {n} has {len(seen)} tables")
    return out


def _growth_op(label: str, ref: str, n: int, x: int, length: int, degree: str) -> Op:
    """`degree` is 'exact' (must be x), 'none' (too short to show x) or 'either'."""

    def check(results: dict) -> Optional[str]:
        counts = results.get("counts") or []
        if len(counts) != length + 1 or counts[0] != 1 or counts[1] != n:
            return f"counts {counts} do not start 1, {n} or have the wrong length"
        if x == n:  # identity: the free commutative monoid on n letters
            want = [comb(ell + n - 1, n - 1) for ell in range(length + 1)]
            if counts != want:
                return f"counts {counts}, expected {want}"
        got = results.get("degree")
        allowed = {"exact": [x], "none": [None], "either": [x, None]}[degree]
        return None if got in allowed else f"degree {got}, expected one of {allowed}"

    return Op(label, ["growth", ref, "--length", str(length)],
              results={"expected_rank": x}, check=check)


def _normal_forms_op(label: str, table: Table, want: list[list[int]]) -> Op:
    n, cells = table

    def call(pentagon) -> dict:
        s = pentagon.SolutionTable(n, cells)
        return {"forms": [list(w) for w in pentagon.monoid.normal_forms(s, NORMAL_FORM_LENGTH)]}

    return Op(label, call=call, results={"forms": want})


def _monoid_growth(rng, input_dir) -> list[Op]:
    ops = []
    for idx, (t, x) in enumerate(_catalogue()):
        n = t[0]
        path = _write(input_dir, f"cat{idx:02d}", t)
        ops.append(_growth_op(f"growth catalogue #{idx} n={n} x={x}", path, n, x,
                              min(10, x + 4), "exact"))
    # criterion 8 adds these two to the catalogue, as expressions here
    for x, a, g in ((2, 1, 0), (3, 1, 1)):
        n = x << (a + g)
        ops.append(_growth_op(f"growth {_expr((x, a, g))}", _expr((x, a, g)), n, x,
                              min(10, x + 4), "exact"))
    # inputs on both sides of n^L <= 2^14
    for ref, n, x, length, degree in (
        ("canonical(2,2,2)", 32, 2, 6, "either"),
        ("canonical(8,0,1)", 16, 8, 6, "none"),  # degree 8 needs 11 values
        ("canonical(3,1,1)", 12, 3, 10, "exact"),
        ("identity(6)", 6, 6, 8, "exact"),
    ):
        ops.append(_growth_op(f"growth {ref} L={length}", ref, n, x, length, degree))
    ell = NORMAL_FORM_LENGTH
    for n in (2, 3, 4):
        # identity: classes are multisets, least word the sorted one
        want = [list(w) for w in product(range(n), repeat=ell) if list(w) == sorted(w)]
        ops.append(_normal_forms_op(f"normal_forms identity({n})", canonical_table(n, 0, 0), want))
    # irretractable(1): 01 = 10 = 11, so 0^L and every word with a 1
    ops.append(_normal_forms_op("normal_forms irretractable(1)", irretractable_table(1),
                                [[0] * ell, [0] * (ell - 1) + [1]]))
    return ops


BUILDERS = {
    "enum-search": _enum_search,
    "verify-classify": _verify_classify,
    "monoid-growth": _monoid_growth,
}
WORKLOADS = tuple(BUILDERS)
