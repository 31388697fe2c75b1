"""Why these mechanisms are private: the tape-alignment argument, executed.

Fix the output of a run on side D.  The alignment rewrites the tape so the
run on the adjacent side D' produces the *same* output: raise the threshold
draw by 1 (below-threshold answers stay below), and shift each positive
answer's draw by 1 + delta_i (its gap is preserved exactly).  The weighted
L1 size of that rewrite, with weights equal to the budget pieces, is the
privacy cost, and it never exceeds epsilon.
"""

from gapsvt import (
    NoiseTape,
    Side,
    TapeLayout,
    Workload,
    align_svt_gap,
    alignment_cost,
    budget_split_svt,
    cost_closed_form,
    index_sets,
    shift_for_output,
    svt_gap_run,
)

w = Workload.from_values([(5, 4), (3, 4)], threshold=4, k=1, epsilon=1.0)
tape = NoiseTape(0, (0, 0))

omega = svt_gap_run(w, tape, Side.D)
print("run on D:      ", omega.answers)

aligned = align_svt_gap(tape, omega, w)
print("original tape: ", tape.flat())
print("aligned tape:  ", aligned.flat())
print("(threshold draw +1; the positive answer at index 0 has delta=+1, so +2)")
# the shift is itself a tape over the same noise roles, built from the output alone
print("shift tape:    ", shift_for_output(omega, w.deltas(), TapeLayout.SINGLE).flat())

again = svt_gap_run(w, aligned, Side.DPRIME)
print("run on D':     ", again.answers)
assert again == omega, "alignment must reproduce the output exactly"

# each coordinate's shift costs its noise role's epsilon per unit
budget = budget_split_svt(w.epsilon, w.k)
print("epsilon per noise role:", {role: str(eps) for role, eps in budget.pieces.items()})
cost = alignment_cost(tape, aligned, budget)
closed = cost_closed_form(index_sets(omega), w.deltas(), budget)
print(f"\nalignment cost = {cost} (closed form {closed}), epsilon = {w.epsilon}")
assert cost <= w.epsilon

# the rewrite is a translation: it depends on which indices answered
# positively and on the deltas, never on the tape values themselves
import numpy as np

rng = np.random.default_rng(0)
shifts = set()
hits = 0
for _ in range(20000):
    t = NoiseTape(float(rng.normal(0, 2)), tuple(rng.normal(0, 2, size=2)))
    om = svt_gap_run(w, t, Side.D)
    if index_sets(om) == index_sets(omega):
        hits += 1
        al = align_svt_gap(t, om, w)
        shifts.add(tuple(round(float(b) - float(a), 9) for a, b in zip(t.flat(), al.flat())))
print(f"\n{hits} sampled tapes produced the same positive-index set;")
print(f"distinct shift vectors observed: {sorted(shifts)}")
assert len(shifts) == 1
