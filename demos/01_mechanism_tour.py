"""Tour of the three mechanisms over explicit noise tapes.

Every run is a deterministic function of (workload, tape): the tape holds
the threshold draw plus one draw (or one pair of draws) per query, so runs
replay exactly and zero-noise tapes give hand-checkable traces.
"""

from gapsvt import (
    ADAPTIVE_GAP,
    NoiseTape,
    SVT_CLASSIC,
    SVT_GAP,
    Side,
    TapeLayout,
    Workload,
    budget_split_adaptive,
    budget_split_svt,
    run_mechanism,
    sample_run,
    svt_classic_run,
    svt_gap_run,
)

# five queries, evaluated on two adjacent inputs (each entry differs by <= 1)
w = Workload.from_values(
    pairs=[(5, 4), (3, 3), (7, 7), (4, 5), (6, 6)],
    threshold=4,
    k=2,
    epsilon=1.0,
)

print("== budget split ==")
b = budget_split_svt(w.epsilon, w.k)
print(f"eps0 = {b.epsilon0} (threshold), eps1 = {b.epsilon1} (per query)")
print(f"identity eps0 + 2k*eps1 = {b.epsilon0 + 2 * w.k * b.epsilon1}")

print("\n== zero-noise traces are hand-checkable ==")
zero = NoiseTape(0, (0, 0, 0, 0, 0))
print("gap variant:    ", svt_gap_run(w, zero, Side.D).answers)
print("classic variant:", svt_classic_run(w, zero, Side.D).answers)
print("(the classic variant is the gap variant with gaps erased)")

print("\n== real noise, still deterministic given the seed ==")
for seed in (1, 2, 1):
    result, _ = sample_run(SVT_GAP, w, Side.D, seed)
    out = result.output
    print(f"seed={seed}: {out.answers}")

print("\n== adaptive variant: two attempts per query ==")
wa = Workload.from_values([(10, 9), (5, 4), (0, 1)], 4, 1, 1.0, sigma=2)
budget = budget_split_adaptive(wa.epsilon, wa.k)
print(f"eps0={budget.epsilon0} eps1={budget.epsilon1} eps2={budget.epsilon2}")
tape = NoiseTape(0, ((0, 0), (0, 0), (0, 0)), TapeLayout.PAIRED)
result = run_mechanism(ADAPTIVE_GAP, wa, tape, Side.D, budget)
out, ledger = result.output, result.ledger
print("answers:", out.answers)
print("ledger events:", [(e.index, e.branch.value, str(e.increment)) for e in ledger.events])
print(f"final cost {ledger.running_cost} <= epsilon {wa.epsilon}")
print("a first-branch answer (margin >= sigma) costs half a second-branch one,")
print("and the run stops as soon as a worst-case query could overshoot epsilon")
