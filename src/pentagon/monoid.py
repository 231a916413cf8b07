"""Structure-monoid computations: presentations, growth, rank.

The defining relations identify words of equal length, so the word
problem splits into one finite closure problem per length.  It is solved
stratum by stratum, with a union-find local to each stratum over the
nodes (class at length ell-1, last letter), whose roots are the least
members of their sets and hold a negative parent.  That is exact because
a rewrite either stays inside the prefix, where the previous stratum
already resolved it, or touches the boundary, which the node encoding
sees directly.  Past length 2 the relations are applied as blocks, the
classes of letter pairs at length 2: after each class of length ell-2,
every block with two or more pairs is joined whole as one union star.
The blocks join the same words as the relations: the two pairs of a
relation lie in one block, and the pairs of a block are linked by a
chain of relations.  A class whose successor row (the class of c.a
for each letter a) repeats an earlier one is skipped, since its stars
would join the same nodes again.  The same strata give the counts and
the least word of every class.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .core import BudgetError, SolutionTable, ValidationError
from .analysis import classify

Word = tuple[int, ...]

DEFAULT_WORD_BUDGET = 1 << 24
# the word budget bounds one stratum, not how many of them are closed
MAX_GROWTH_LENGTH = 1000


@dataclass(frozen=True)
class MonoidPresentation:
    """Generators 0..generators-1 and length-preserving pair relations."""

    generators: int
    relations: tuple[tuple[Word, Word], ...]

    def __post_init__(self):
        if self.generators < 1:
            raise ValidationError("generators must be at least 1")
        for lhs, rhs in self.relations:
            if len(lhs) != 2 or len(rhs) != 2:
                raise ValidationError("relations must pair words of length 2")
            if any(not 0 <= v < self.generators for v in lhs + rhs):
                raise ValidationError("relation letter out of range")


@dataclass(frozen=True)
class GrowthSeries:
    """counts[ell] = number of word classes of length ell."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class DegreeEstimate:
    """Polynomial degree of the cumulative counts and where it sets in."""

    degree: int
    onset: int


def presentation_of(s: SolutionTable) -> MonoidPresentation:
    """Relations x . y = theta_x(y) . (x y), one per input pair, row-major.

    Read straight off the entries: s(x, y) = (k, l) gives (x, y) -> (l, k).
    """
    n = s.size
    return MonoidPresentation(
        n, tuple((divmod(p, n), (l, k)) for p, (k, l) in enumerate(s.entries))
    )


def _strata(
    pres: MonoidPresentation, length: int, word_budget: int
) -> list[array]:
    """Least node of each word class, for every length 0..length.

    Element ell of the result lists, in class-label order, the least
    node c * n + x of each class of length ell (node 0 for the empty
    word at length 0).  Classes are labelled in order of their least
    node, so by induction on ell the labels follow the lexicographic
    order of least words, and the least node (c, x) of a class spells
    its least word: the least word of class c at ell-1, then letter x.
    """
    if length < 0:
        raise ValidationError("length must be non-negative")
    if length > MAX_GROWTH_LENGTH:
        raise ValidationError(
            f"length {length} exceeds the cap of {MAX_GROWTH_LENGTH}"
        )
    if word_budget < 0:
        raise ValidationError("word budget must be non-negative")
    n = pres.generators
    # a block is a set of letter pairs to join, as its first pair and the
    # rest; at length 2 each relation is the block of its two sides
    blocks = [
        (a, b, ((c, d),)) for (a, b), (c, d) in pres.relations if (a, b) != (c, d)
    ]
    strata = [array("i", [0])]
    q_prev = array("i")  # node at ell-1  ->  class at ell-1
    c_prev2 = 0
    for ell in range(1, length + 1):
        c_prev = len(strata[-1])
        nodes = c_prev * n
        if nodes > word_budget:
            raise BudgetError(
                f"{nodes} stratum nodes exceed the budget of {word_budget}"
            )
        # union-find over the nodes, -1 at a root; the larger root is linked
        # under the smaller, so every root is the least member of its class.
        # Each block is joined as a star: the first pair's root, lowered to
        # every smaller root met, takes in the roots of the other pairs.
        parent = [-1] * nodes
        # the stars of a class join nodes read off its successor row alone,
        # so a row equal to an earlier one joins nothing new and is skipped;
        # `seen` holds the first row met per first successor, and a repeat
        # it misses is only joined twice
        seen = array("i", [-1]) * c_prev
        for base in range(0, c_prev2 * n, n):
            succ = q_prev[base:base + n]
            first = seen[succ[0]]
            if first < 0:
                seen[succ[0]] = base
            elif q_prev[first:first + n] == succ:
                continue
            row = [q * n for q in succ]
            for a, b, rest in blocks:
                r = row[a] + b
                while (p := parent[r]) >= 0:
                    if (g := parent[p]) < 0:
                        r = p
                        break
                    parent[r] = g
                    r = g
                for c, d in rest:
                    v = row[c] + d
                    while (p := parent[v]) >= 0:
                        if (g := parent[p]) < 0:
                            v = p
                            break
                        parent[v] = g
                        v = g
                    if v < r:
                        parent[r] = v
                        r = v
                    elif r < v:
                        parent[v] = r
        del seen  # freed before labelling, where the stratum peaks
        # label in place: a non-root's parent is a smaller node of its
        # class, whose entry already holds the class label
        firsts = array("i")
        for w, r in enumerate(parent):
            if r < 0:
                parent[w] = len(firsts)
                firsts.append(w)
            else:
                parent[w] = parent[r]
        if ell == 2:
            # past length 2 the blocks are the classes of pairs a*n + b,
            # least pair first; singletons join nothing
            members = [[] for _ in firsts]
            for pair, label in enumerate(parent):
                members[label].append(divmod(pair, n))
            blocks = [(a, b, tuple(rest)) for (a, b), *rest in members if rest]
        strata.append(firsts)
        q_prev = array("i", parent)
        c_prev2 = c_prev
    return strata


def series_from_presentation(
    pres: MonoidPresentation,
    length: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> GrowthSeries:
    """Class counts of words of each length up to `length`.

    `word_budget` bounds the nodes of each stratum, that is the classes
    at length ell-1 times the generators; BudgetError when exceeded.
    """
    strata = _strata(pres, length, word_budget)
    return GrowthSeries(tuple(len(firsts) for firsts in strata))


def growth_series(
    s: SolutionTable,
    length: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
) -> GrowthSeries:
    """Class counts of words of each length up to `length`.

    `word_budget` bounds the nodes of each stratum, that is the classes
    at length ell-1 times the carrier size; BudgetError when exceeded.
    """
    return series_from_presentation(
        presentation_of(s), length, word_budget=word_budget
    )


def rank_expected(s: SolutionTable) -> int:
    """The x_size of the `classify` shape, that of the solution's
    certificate: the predicted growth degree."""
    return classify(s).x_size


def estimate_growth_degree(series: GrowthSeries) -> Optional[DegreeEstimate]:
    """Degree of the eventual polynomial behind the cumulative counts.

    Takes iterated finite differences of B(ell) = sum of counts up to
    ell and looks for the first level whose trailing values are constant
    with a run of at least 3; returns None when the series is too short
    to show such a run.
    """
    row: list[int] = []
    total = 0
    for c in series.counts:
        total += c
        row.append(total)
    degree = 0
    while len(row) >= 3:
        run = 1
        while run < len(row) and row[-run - 1] == row[-1]:
            run += 1
        if run >= 3:
            return DegreeEstimate(degree, len(row) - run)
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        degree += 1
    return None


def normal_forms(
    s: SolutionTable, length: int, word_budget: int = DEFAULT_WORD_BUDGET
) -> list[Word]:
    """Lexicographically smallest word of each class of the given length.

    The list is sorted.  `word_budget` bounds the stratum nodes as in
    `growth_series`.
    """
    strata = _strata(presentation_of(s), length, word_budget)
    n = s.size
    out: list[Word] = []
    for label in range(len(strata[-1])):
        letters = []
        c = label
        for firsts in reversed(strata[1:]):
            c, letter = divmod(firsts[c], n)
            letters.append(letter)
        out.append(tuple(reversed(letters)))
    return out
