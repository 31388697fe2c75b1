"""Executable tape rewrites that reproduce an output on the adjacent side.

For a run that produced output ``omega`` from tape ``H`` on side D, the
alignment maps ``H`` to a tape ``H'`` such that the same mechanism run on
side D' with ``H'`` yields ``omega`` again.  The rewrite is a translation:
raise the threshold draw by one so below-threshold answers stay below, and
shift the draw that produced each positive answer by ``1 + delta_i`` so its
gap is preserved exactly.  The shift vector depends only on the positive
index sets and the per-query deltas, never on the tape itself; that constant
structure is what the verifier's countability and acyclicity checks assert.
The shift is itself a ``NoiseTape`` over the same noise roles as the tape
it moves.

The weighted L1 size of the rewrite is the privacy cost certificate: each
coordinate's shift is weighed by its role's epsilon, the budget's piece,
and the total never exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import BOT_KEY, Branch, NoiseTape, OutputSequence, TapeLayout, Workload
from .errors import LayoutMismatch
from .mechanisms import AdaptiveBudget, SvtBudget

# module aliases: a member lookup on an Enum class costs several times a global's
_SINGLE, _PAIRED = TapeLayout.SINGLE, TapeLayout.PAIRED
_SECOND_KEY = Branch.SECOND.value


@dataclass(frozen=True)
class IndexSets:
    """Positions answered positively, split by which comparison fired."""

    top_first: frozenset  # plain SVT positives and adaptive first-branch ones
    top_second: frozenset  # adaptive second-branch positives


def index_sets(omega: OutputSequence) -> IndexSets:
    first, second = [], []
    for i, a in enumerate(omega.answers):
        if a != BOT_KEY:
            (second if type(a) is tuple and a[0] == _SECOND_KEY else first).append(i)
    return IndexSets(frozenset(first), frozenset(second))


class Mutation(str, Enum):
    """Deliberate corruptions used to prove the harness can detect a broken
    alignment.  Never applied outside self-test paths."""

    THRESHOLD_SHIFT = "threshold-shift"  # wrong constant on the threshold draw
    QUERY_SHIFT = "query-shift"  # positive-answer shift drops the delta term
    DROP_SECOND_BRANCH = "drop-second-branch"  # second-branch shifts omitted


MUTATED_THRESHOLD_SHIFT = 2.0  # the threshold-shift mutation's constant; the sound one is 1


def shift_for_output(
    omega: OutputSequence, deltas, layout: TapeLayout, mutation: Mutation | None = None
) -> NoiseTape:
    """Build the shift vector from the output's index sets and the deltas,
    as a tape of shifts over the layout's noise roles.

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
    second = sets.top_second if mutation is not Mutation.DROP_SECOND_BRANCH else frozenset()
    # a positive answer shifts the draw of the role that fired: the first
    # query role for plain and first-branch positives, the second for
    # second-branch ones
    r = len(layout.query_roles)
    shift = [threshold_shift] + [0] * (r * len(deltas))
    for j, fired in enumerate((sets.top_first, second)[:r]):
        for i in fired:
            shift[1 + r * i + j] = top_shift[i]
    return NoiseTape.from_flat(shift, layout)


def align_svt_gap(tape: NoiseTape, omega: OutputSequence, w: Workload, mutation: Mutation | None = None) -> NoiseTape:
    """Rewrite a single-layout tape so the run on the other side reproduces
    ``omega``: threshold draw up by one, positive-answer draws up by
    ``1 + delta_i``, everything else untouched.  A paired tape raises
    LayoutMismatch."""
    return tape.shifted_by(shift_for_output(omega, w.deltas(), _SINGLE, mutation))


def align_adaptive(tape: NoiseTape, omega: OutputSequence, w: Workload, mutation: Mutation | None = None) -> NoiseTape:
    """Paired-layout rewrite: first-branch positives shift their first draw,
    second-branch positives their second draw, both by ``1 + delta_i``.  A
    single-layout tape raises LayoutMismatch."""
    return tape.shifted_by(shift_for_output(omega, w.deltas(), _PAIRED, mutation))


def alignment_cost(tape: NoiseTape, aligned: NoiseTape, budget: SvtBudget | AdaptiveBudget) -> float:
    """Weighted L1 distance between a tape and its rewrite: each coordinate's
    change at the epsilon of its noise role, the budget's piece."""
    if tape.layout is not aligned.layout or tape.layout is not budget.layout:
        raise LayoutMismatch("tape, aligned tape and budget must share a layout")
    n = len(tape)
    if n != len(aligned):
        raise LayoutMismatch(f"tape lengths differ: {n} vs {len(aligned)}")
    role = budget.weights
    weights = (role["threshold"], *[role[r] for r in budget.layout.query_roles] * n)  # in the order of tape.flat()
    cost = 0.0
    for weight, a, b in zip(weights, tape.flat(), aligned.flat()):
        cost += weight * abs(b - a)
    return cost


def cost_closed_form(sets: IndexSets, deltas, budget: SvtBudget | AdaptiveBudget) -> float:
    """Cost of the canonical shift evaluated from its structure alone:
    threshold epsilon once, plus |1 + delta_i| at the firing role's epsilon
    for each positive index."""
    cost = budget.weights["threshold"] * 1.0
    role_weights = [budget.weights[r] for r in budget.layout.query_roles]
    for i in range(len(deltas)):
        if i in sets.top_first:
            cost += role_weights[0] * abs(1.0 + deltas[i])
        elif i in sets.top_second:
            cost += role_weights[1] * abs(1.0 + deltas[i])
    return cost
