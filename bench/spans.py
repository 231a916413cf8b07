"""Spans around the package's public functions, recorded from outside.

`Tracer.install` rebinds each traced function, in every `pentagon` module
that imported it, to a wrapper that records a span: name, start, end,
parent span and operation id, plus a few facts about the call (carrier
size, worker count, whether an isomorphism was found).  Nothing under
`src/` changes.  `uninstall` puts the original functions back, so an
untraced pass runs exactly the package's code.

Pool workers of `enumerate --workers 2` are forked processes; spans of
theirs would stay in their own memory, so only the parent-side
`enumerate_pruned` span is attributed.  None of the traced functions runs
in a worker today.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (span name, defining module, function).  The span name is the layer
# metric prefix; the three expression builders share "constructors".
TRACED = [
    ("cli.run", "cli", "run"),
    ("cli.load_solution", "cli", "load_solution"),
    ("core.check_pentagon", "core", "check_pentagon"),
    ("core.check_involutive", "core", "check_involutive"),
    ("core.derive_tables", "core", "derive_tables"),
    ("core.relabel", "core", "relabel"),
    ("constructors", "constructors", "identity_solution"),
    ("constructors", "constructors", "irretractable_solution"),
    ("constructors", "constructors", "canonical_solution"),
    ("enumeration.enumerate_pruned", "enumeration", "enumerate_pruned"),
    ("enumeration.count_up_to_iso", "enumeration", "count_up_to_iso"),
    ("enumeration.canonical_form", "enumeration", "canonical_form"),
    ("analysis.classify", "analysis", "classify"),
    ("analysis.retract", "analysis", "retract"),
    ("analysis.is_isomorphic_invariant", "analysis", "is_isomorphic_invariant"),
    ("analysis.find_isomorphism", "analysis", "find_isomorphism"),
    ("monoid.growth_series", "monoid", "growth_series"),
    ("monoid.presentation_of", "monoid", "presentation_of"),
    ("monoid.rank_expected", "monoid", "rank_expected"),
    ("monoid.normal_forms", "monoid", "normal_forms"),
]

PACKAGE_MODULES = ("", ".cli", ".core", ".constructors", ".analysis", ".enumeration", ".monoid")

DENSE_WORDS = 1 << 14


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _facts(name: str, args, kwargs, result):
    """What a span records about its call beyond the times."""
    if name == "core.check_pentagon":
        return {"n": args[0].size, "passed": bool(result)}
    if name == "enumeration.enumerate_pruned":
        return {"workers": _arg(args, kwargs, 2, "workers", 1), "tables": len(result)}
    if name == "analysis.find_isomorphism":
        return {"found": result is not None}
    if name == "monoid.growth_series":
        small = args[0].size ** _arg(args, kwargs, 1, "length") <= DENSE_WORDS
        return {"small": small, "classes": sum(result.counts)}
    return None


class Tracer:
    """Spans kept in memory: [name, start, end, parent, op, pass, facts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.pass_index = None
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.pass_index, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[6] = _facts(name, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "pentagon") -> None:
        modules = [sys.modules[package + suffix] for suffix in PACKAGE_MODULES]
        for span_name, home, attr in TRACED:
            original = getattr(sys.modules[f"{package}.{home}"], attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            # `verify --axioms` looks checks up in a table built at import
            checks = sys.modules[f"{package}.cli"].AXIOM_CHECKS
            for key, fn in list(checks.items()):
                if fn is original:
                    self._saved.append((checks, key, original))
                    checks[key] = wrapper

    def uninstall(self) -> None:
        for where, attr, original in reversed(self._saved):
            if isinstance(where, dict):
                where[attr] = original
            else:
                setattr(where, attr, original)
        self._saved.clear()

    def write(self, path: str, origin: float) -> None:
        """One JSON array per span; times in seconds from `origin`."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op, pass_index, facts in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9),
                                     parent, op, pass_index, facts]) + "\n")

    # -- per-layer metrics ----------------------------------------------------

    def pass_metrics(self, pass_index: int) -> dict[str, float]:
        """Layer metrics of one traced pass: calls and self seconds per layer.

        Self time is a span's duration minus the durations of its child
        spans.  A ratio with nothing to divide by reads 0.
        """
        spans = self.spans
        idx = [i for i, s in enumerate(spans) if s[5] == pass_index]
        duration = {i: spans[i][2] - spans[i][1] for i in idx}
        own = dict(duration)
        for i in idx:
            if spans[i][3] in own:
                own[spans[i][3]] -= duration[i]

        def pick(name, keep=lambda facts: True):
            return [i for i in idx if spans[i][0] == name and keep(spans[i][6])]

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {"cli.run.self_s": sum(own[i] for i in pick("cli.run"))}
        for name in ("cli.load_solution", "core.check_pentagon", "core.check_involutive",
                     "core.derive_tables", "core.relabel", "constructors",
                     "enumeration.canonical_form", "analysis.classify", "analysis.retract",
                     "analysis.is_isomorphic_invariant", "analysis.find_isomorphism",
                     "monoid.presentation_of", "monoid.rank_expected", "monoid.normal_forms"):
            m[name + ".calls"] = len(pick(name))
            m[name + ".s"] = sum(own[i] for i in pick(name))

        passing = pick("core.check_pentagon", lambda f: f["passed"])
        m["core.check_pentagon.triples_per_s"] = ratio(
            sum(spans[i][6]["n"] ** 3 for i in passing), sum(duration[i] for i in passing))

        pruned = pick("enumeration.enumerate_pruned")
        m["enumeration.enumerate_pruned.calls"] = len(pruned)
        m["enumeration.enumerate_pruned.w1.s"] = sum(
            own[i] for i in pruned if spans[i][6]["workers"] <= 1)
        m["enumeration.enumerate_pruned.w2.s"] = sum(
            own[i] for i in pruned if spans[i][6]["workers"] > 1)
        m["enumeration.tables"] = sum(spans[i][6]["tables"] for i in pruned)
        m["enumeration.count_up_to_iso.self_s"] = sum(
            own[i] for i in pick("enumeration.count_up_to_iso"))

        finds = pick("analysis.find_isomorphism")
        m["analysis.find_isomorphism.found_ratio"] = ratio(
            sum(1 for i in finds if spans[i][6]["found"]), len(finds))

        growth = pick("monoid.growth_series")
        m["monoid.growth_series.calls"] = len(growth)
        m["monoid.growth_series.small.s"] = sum(own[i] for i in growth if spans[i][6]["small"])
        m["monoid.growth_series.large.s"] = sum(
            own[i] for i in growth if not spans[i][6]["small"])
        m["monoid.word_classes"] = sum(spans[i][6]["classes"] for i in growth)
        m["monoid.classes_per_s"] = ratio(
            m["monoid.word_classes"], sum(duration[i] for i in growth))
        return m
