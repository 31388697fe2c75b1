"""Executable tape rewrites that reproduce an output on the adjacent side.

For a run that produced output ``omega`` from tape ``H`` on side D, the
alignment maps ``H`` to a tape ``H'`` such that the same mechanism run on
side D' with ``H'`` yields ``omega`` again.  The rewrite is a translation:
raise the threshold draw by one so below-threshold answers stay below, and
shift the draw that produced each positive answer by ``1 + delta_i`` so its
gap is preserved exactly.  The shift vector depends only on the positive
index sets and the per-query deltas, never on the tape itself; that constant
structure is what the verifier's countability and acyclicity checks assert.

The weighted L1 size of the rewrite is the privacy cost certificate: with
role weights equal to the budget pieces, it never exceeds the total budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Branch, NoiseTape, OutputSequence, TapeLayout, Workload
from .errors import LayoutMismatch
from .mechanisms import AdaptiveBudget, SvtBudget


@dataclass(frozen=True)
class IndexSets:
    """Positions answered positively, split by which comparison fired."""

    top_first: frozenset  # plain SVT positives and adaptive first-branch ones
    top_second: frozenset  # adaptive second-branch positives

    def __post_init__(self):
        overlap = self.top_first & self.top_second
        if overlap:
            raise ValueError(f"branch index sets overlap at {sorted(overlap)}")


def index_sets(omega: OutputSequence) -> IndexSets:
    first, second = [], []
    for i, a in enumerate(omega.answers):
        if a.top:
            (second if a.branch is Branch.SECOND else first).append(i)
    return IndexSets(frozenset(first), frozenset(second))


class Mutation(str, Enum):
    """Deliberate corruptions used to prove the harness can detect a broken
    alignment.  Never applied outside self-test paths."""

    THRESHOLD_SHIFT = "threshold-shift"  # wrong constant on the threshold draw
    QUERY_SHIFT = "query-shift"  # positive-answer shift drops the delta term
    DROP_SECOND_BRANCH = "drop-second-branch"  # second-branch shifts omitted


MUTATED_THRESHOLD_SHIFT = 2.0  # the threshold-shift mutation's constant; the sound one is 1


@dataclass(frozen=True)
class AlignmentShift:
    """The translation H' - H, materialised so its structure is testable.

    ``per_query`` holds one scalar per query for the single layout and one
    ``(first, second)`` pair for the paired layout.
    """

    threshold_shift: float
    per_query: tuple
    layout: TapeLayout

    def apply(self, tape: NoiseTape) -> NoiseTape:
        if tape.layout is not self.layout:
            raise LayoutMismatch(
                f"shift has layout {self.layout.value}, tape has {tape.layout.value}"
            )
        if len(tape.per_query) < len(self.per_query):
            raise LayoutMismatch(
                f"tape has {len(tape.per_query)} entries, shift needs {len(self.per_query)}"
            )
        eta = tape.threshold_noise + self.threshold_shift
        draws, rest = tape.per_query, tape.per_query[len(self.per_query) :]
        if self.layout is TapeLayout.SINGLE:
            per = (*[v + s for v, s in zip(draws, self.per_query)], *rest)
        else:
            per = (
                *[(a + s, b + t) for (a, b), (s, t) in zip(draws, self.per_query)],
                *[(a, b) for a, b in rest],
            )
        return NoiseTape(eta, per, self.layout)

    def flat(self) -> tuple:
        if self.layout is TapeLayout.SINGLE:
            return (self.threshold_shift, *self.per_query)
        out = [self.threshold_shift]
        for a, b in self.per_query:
            out.extend((a, b))
        return tuple(out)


def shift_for_output(
    omega: OutputSequence, deltas, layout: TapeLayout, mutation: Mutation | None = None
) -> AlignmentShift:
    """Build the shift vector from the output's index sets and the deltas.

    This is deliberately the only constructor of alignments: it takes no
    tape, which makes "the shift is a function of (index sets, deltas)" true
    by construction and lets the verifier recompute it independently.
    """
    sets = index_sets(omega)
    # integer arithmetic below keeps integer tapes exactly integer
    threshold_shift = MUTATED_THRESHOLD_SHIFT if mutation is Mutation.THRESHOLD_SHIFT else 1
    if mutation is Mutation.QUERY_SHIFT:
        top_shift = [1] * len(deltas)
    else:
        top_shift = [1 + d for d in deltas]
    first = sets.top_first
    if layout is TapeLayout.SINGLE:
        per = tuple([top_shift[i] if i in first else 0 for i in range(len(deltas))])
    else:
        second = sets.top_second if mutation is not Mutation.DROP_SECOND_BRANCH else frozenset()
        per = tuple(
            [
                (top_shift[i], 0) if i in first else (0, top_shift[i]) if i in second else (0, 0)
                for i in range(len(deltas))
            ]
        )
    return AlignmentShift(threshold_shift, per, layout)


def align_svt_gap(tape: NoiseTape, omega: OutputSequence, w: Workload, mutation: Mutation | None = None) -> NoiseTape:
    """Rewrite a single-layout tape so the run on the other side reproduces
    ``omega``: threshold draw up by one, positive-answer draws up by
    ``1 + delta_i``, everything else untouched.  A paired tape raises
    LayoutMismatch."""
    shift = shift_for_output(omega, w.deltas(), TapeLayout.SINGLE, mutation)
    return shift.apply(tape)


def align_adaptive(tape: NoiseTape, omega: OutputSequence, w: Workload, mutation: Mutation | None = None) -> NoiseTape:
    """Paired-layout rewrite: first-branch positives shift their first draw,
    second-branch positives their second draw, both by ``1 + delta_i``.  A
    single-layout tape raises LayoutMismatch."""
    shift = shift_for_output(omega, w.deltas(), TapeLayout.PAIRED, mutation)
    return shift.apply(tape)


@dataclass(frozen=True)
class CostWeights:
    """Per-role weights for the L1 cost; consistent with a budget split."""

    threshold: float
    query: float | None = None
    query_first: float | None = None
    query_second: float | None = None

    def __post_init__(self):
        single = self.query is not None
        paired = self.query_first is not None and self.query_second is not None
        if single == paired:
            raise LayoutMismatch("weights must carry either a query role or both paired roles")
        for v in (self.threshold, self.query, self.query_first, self.query_second):
            if v is not None and not v > 0:
                raise LayoutMismatch("cost weights must be positive")

    @property
    def layout(self) -> TapeLayout:
        return TapeLayout.SINGLE if self.query is not None else TapeLayout.PAIRED

    @classmethod
    def for_svt(cls, budget: SvtBudget) -> "CostWeights":
        return cls(threshold=float(budget.epsilon0), query=float(budget.epsilon1))

    @classmethod
    def for_adaptive(cls, budget: AdaptiveBudget) -> "CostWeights":
        return cls(
            threshold=float(budget.epsilon0),
            query_first=float(budget.epsilon1),
            query_second=float(budget.epsilon2),
        )


def alignment_cost(tape: NoiseTape, aligned: NoiseTape, weights: CostWeights) -> float:
    """Weighted L1 distance between a tape and its rewrite."""
    if tape.layout is not aligned.layout or tape.layout is not weights.layout:
        raise LayoutMismatch("tape, aligned tape and weights must share a layout")
    if len(tape.per_query) != len(aligned.per_query):
        raise LayoutMismatch(
            f"tape lengths differ: {len(tape.per_query)} vs {len(aligned.per_query)}"
        )
    cost = weights.threshold * abs(aligned.threshold_noise - tape.threshold_noise)
    if tape.layout is TapeLayout.SINGLE:
        for a, b in zip(tape.per_query, aligned.per_query):
            cost += weights.query * abs(b - a)
    else:
        for (a1, a2), (b1, b2) in zip(tape.per_query, aligned.per_query):
            cost += weights.query_first * abs(b1 - a1)
            cost += weights.query_second * abs(b2 - a2)
    return cost


def cost_closed_form(sets: IndexSets, deltas, weights: CostWeights) -> float:
    """Cost of the canonical shift evaluated from its structure alone:
    threshold weight once, plus |1 + delta_i| at the firing role's weight for
    each positive index."""
    cost = weights.threshold * 1.0
    first_w = weights.query if weights.layout is TapeLayout.SINGLE else weights.query_first
    for i in range(len(deltas)):
        if i in sets.top_first:
            cost += first_w * abs(1.0 + deltas[i])
        elif i in sets.top_second:
            cost += weights.query_second * abs(1.0 + deltas[i])
    return cost
