import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsvt import (
    ADAPTIVE_GAP,
    Branch,
    LayoutMismatch,
    NoiseTape,
    Side,
    TapeLayout,
    Workload,
    align_adaptive,
    align_svt_gap,
    alignment_cost,
    budget_split_adaptive,
    budget_split_svt,
    cost_closed_form,
    index_sets,
    run_mechanism,
    shift_for_output,
    svt_gap_run,
)
from gapsvt.alignments import Mutation


def zero_paired(n):
    return NoiseTape(0, tuple([(0, 0)] * n), TapeLayout.PAIRED)


def adaptive_run(w, budget, tape, side=Side.D):
    """The adaptive run's output and cost ledger."""
    result = run_mechanism(ADAPTIVE_GAP, w, tape, side, budget)
    return result.output, result.ledger


class TestIndexSets:
    def test_plain_tops(self):
        omega_answers = (("plain", 1), "bot", ("plain", 3))
        from gapsvt import OutputSequence

        sets = index_sets(OutputSequence(omega_answers))
        assert sets.top_first == {0, 2}
        assert sets.top_second == frozenset()

    def test_adaptive_branches(self):
        from gapsvt import OutputSequence

        omega = OutputSequence((("first", 6), "bot", ("second", 0.5)))
        sets = index_sets(omega)
        assert sets.top_first == {0}
        assert sets.top_second == {2}

    def test_all_bot(self):
        from gapsvt import OutputSequence

        sets = index_sets(OutputSequence(("bot", "bot")))
        assert sets.top_first == frozenset() and sets.top_second == frozenset()

    @given(st.lists(st.sampled_from([None, Branch.FIRST, Branch.SECOND]), max_size=12))
    def test_branch_sets_partition_the_positives(self, branches):
        from gapsvt import OutputSequence

        answers = tuple("bot" if b is None else (b.value, 1.5) for b in branches)
        sets = index_sets(OutputSequence(answers))
        assert not sets.top_first & sets.top_second
        assert sets.top_first | sets.top_second == {i for i, b in enumerate(branches) if b is not None}
        assert sets.top_second == {i for i, b in enumerate(branches) if b is Branch.SECOND}


class TestAlignSvtGap:
    def test_worked_example_reproduces_output(self):
        w = Workload.from_values([(5, 4), (3, 4)], 4, 1, 1.0)
        tape = NoiseTape(0, (0, 0))
        omega = svt_gap_run(w, tape, Side.D)
        aligned = align_svt_gap(tape, omega, w)
        assert aligned.threshold_noise == 1
        assert aligned.per_query == (2, 0)
        assert svt_gap_run(w, aligned, Side.DPRIME) == omega

    def test_identical_sides_all_bot(self):
        w = Workload.from_values([(1, 1), (2, 2)], 4, 1, 1.0)
        tape = NoiseTape(0.5, (0.25, -0.75))
        omega = svt_gap_run(w, tape, Side.D)
        assert all(a == "bot" for a in omega)
        aligned = align_svt_gap(tape, omega, w)
        assert aligned.threshold_noise == tape.threshold_noise + 1
        assert aligned.per_query == tape.per_query
        assert svt_gap_run(w, aligned, Side.DPRIME) == omega

    def test_shift_is_constant_given_output(self):
        # over tapes conditioned on the same output, phi(H) - H is one vector
        w = Workload.from_values([(5, 4), (3, 4)], 4, 1, 1.0)
        rng = np.random.default_rng(7)
        shifts = {}
        for _ in range(3000):
            tape = NoiseTape(float(rng.normal(0, 2)), tuple(rng.normal(0, 2, size=2)))
            omega = svt_gap_run(w, tape, Side.D)
            aligned = align_svt_gap(tape, omega, w)
            delta = tuple(
                round(b - a, 9) for a, b in zip(tape.flat(), aligned.flat())
            )
            shifts.setdefault(omega.canonical(6), set()).add(delta)
        assert len(shifts) > 1
        assert all(len(v) == 1 for v in shifts.values())

    def test_layout_mismatch(self):
        w = Workload.from_values([(1, 1)], 0, 1, 1.0)
        from gapsvt import OutputSequence

        with pytest.raises(LayoutMismatch):
            align_svt_gap(zero_paired(1), OutputSequence(("bot",)), w)


class TestAlignAdaptive:
    def test_first_branch_example(self):
        w = Workload.from_values([(10, 9)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        tape = zero_paired(1)
        omega, _ = adaptive_run(w, budget, tape, Side.D)
        aligned = align_adaptive(tape, omega, w)
        assert aligned.threshold_noise == 1
        assert aligned.per_query == ((2, 0),)
        again, _ = adaptive_run(w, budget, aligned, Side.DPRIME)
        assert again == omega

    def test_second_branch_example(self):
        w = Workload.from_values([(5, 4)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        tape = zero_paired(1)
        omega, _ = adaptive_run(w, budget, tape, Side.D)
        assert omega.answers[0][0] == "second"
        aligned = align_adaptive(tape, omega, w)
        assert aligned.per_query == ((0, 2),)
        again, _ = adaptive_run(w, budget, aligned, Side.DPRIME)
        assert again == omega

    def test_all_bot_keeps_queries(self):
        w = Workload.from_values([(0, 0), (1, 1)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        tape = NoiseTape(0.5, ((0.1, -0.2), (0.3, 0.4)), TapeLayout.PAIRED)
        omega, _ = adaptive_run(w, budget, tape, Side.D)
        assert all(a == "bot" for a in omega)
        aligned = align_adaptive(tape, omega, w)
        assert aligned.threshold_noise == tape.threshold_noise + 1
        assert aligned.per_query == tape.per_query
        again, _ = adaptive_run(w, budget, aligned, Side.DPRIME)
        assert again == omega


class TestAlignmentCost:
    def test_identity_costs_nothing(self):
        tape = NoiseTape(0.7, (1.0, -2.0))
        assert alignment_cost(tape, tape, budget_split_svt(1.0, 1)) == 0.0

    def test_single_top_with_max_delta(self):
        # one positive answer with delta = 1: 0.5 * 1 + 0.25 * |1 + 1| = 1.0
        w = Workload.from_values([(5, 4)], 4, 1, 1.0)
        tape = NoiseTape(0, (0,))
        omega = svt_gap_run(w, tape, Side.D)
        aligned = align_svt_gap(tape, omega, w)
        cost = alignment_cost(tape, aligned, budget_split_svt(1.0, 1))
        assert cost == 1.0
        assert cost <= w.epsilon

    def test_adaptive_second_branch_with_max_delta(self):
        # 0.5 + 0.25 * |1 + 1| = 1.0 <= epsilon
        w = Workload.from_values([(5, 4)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        tape = zero_paired(1)
        omega, _ = adaptive_run(w, budget, tape, Side.D)
        aligned = align_adaptive(tape, omega, w)
        cost = alignment_cost(tape, aligned, budget)
        assert cost == 1.0

    def test_closed_form_matches_generic_on_integers(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            values = rng.integers(-3, 8, size=n)
            deltas = rng.integers(-1, 2, size=n)
            w = Workload.from_values(
                [(int(v), int(v - d)) for v, d in zip(values, deltas)],
                int(rng.integers(-2, 6)),
                int(rng.integers(1, 4)),
                1.0,
            )
            tape = NoiseTape(int(rng.integers(-5, 6)), tuple(int(x) for x in rng.integers(-5, 6, size=n)))
            omega = svt_gap_run(w, tape, Side.D)
            aligned = align_svt_gap(tape, omega, w)
            budget = budget_split_svt(1.0, w.k)
            assert cost_closed_form(index_sets(omega), w.deltas(), budget) == alignment_cost(
                tape, aligned, budget
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(LayoutMismatch):
            alignment_cost(NoiseTape(0, (0,)), NoiseTape(0, (0, 0)), budget_split_svt(1.0, 1))

    def test_budget_layout_checked(self):
        # a paired budget with single-layout tapes, and a single one with paired tapes
        with pytest.raises(LayoutMismatch):
            alignment_cost(NoiseTape(0, (0,)), NoiseTape(0, (0,)), budget_split_adaptive(1.0, 1))
        with pytest.raises(LayoutMismatch):
            alignment_cost(zero_paired(1), zero_paired(1), budget_split_svt(1.0, 1))


class TestShiftStructure:
    def test_integer_closure(self):
        # integer values and tapes give integer aligned tapes
        w = Workload.from_values([(5, 4), (3, 4), (6, 6)], 4, 2, 1.0)
        tape = NoiseTape(-1, (2, 0, 1))
        omega = svt_gap_run(w, tape, Side.D)
        aligned = align_svt_gap(tape, omega, w)
        assert isinstance(aligned.threshold_noise, int)
        assert all(isinstance(v, int) for v in aligned.per_query)

    def test_shift_depends_only_on_index_sets_and_deltas(self):
        from gapsvt import OutputSequence

        deltas = (1, -1, 0)
        a = OutputSequence((("plain", 3), "bot", ("plain", 0)))
        b = OutputSequence((("plain", 7), "bot", ("plain", 2)))  # same index sets
        sa = shift_for_output(a, deltas, TapeLayout.SINGLE)
        sb = shift_for_output(b, deltas, TapeLayout.SINGLE)
        assert sa.flat() == sb.flat() == (1, 2, 0, 1)

    def test_mutations_change_the_shift(self):
        from gapsvt import OutputSequence

        omega = OutputSequence((("plain", 1),))
        deltas = (1,)
        base = shift_for_output(omega, deltas, TapeLayout.SINGLE)
        t = shift_for_output(omega, deltas, TapeLayout.SINGLE, Mutation.THRESHOLD_SHIFT)
        q = shift_for_output(omega, deltas, TapeLayout.SINGLE, Mutation.QUERY_SHIFT)
        assert base.flat() == (1, 2)
        assert t.flat() == (2.0, 2) and type(t.threshold_noise) is float
        assert q.flat() == (1, 1)

    def test_drop_second_branch_mutation(self):
        from gapsvt import OutputSequence

        omega = OutputSequence((("second", 1),))
        deltas = (1,)
        base = shift_for_output(omega, deltas, TapeLayout.PAIRED)
        dropped = shift_for_output(omega, deltas, TapeLayout.PAIRED, Mutation.DROP_SECOND_BRANCH)
        assert isinstance(base, NoiseTape) and base.per_query == ((0, 2),)
        assert base.flat() == (1, 0, 2)
        assert dropped.flat() == (1, 0, 0)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_alignment_soundness_property(seed, n, k):
    """Random integer workloads: the aligned tape reproduces the output
    exactly, and the cost stays within epsilon."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-4, 10, size=n)
    deltas = rng.integers(-1, 2, size=n)
    w = Workload.from_values(
        [(int(v), int(v - d)) for v, d in zip(values, deltas)], int(rng.integers(0, 6)), k, 1.0
    )
    tape = NoiseTape(int(rng.integers(-6, 7)), tuple(int(x) for x in rng.integers(-6, 7, size=n)))
    omega = svt_gap_run(w, tape, Side.D)
    aligned = align_svt_gap(tape, omega, w)
    assert svt_gap_run(w, aligned, Side.DPRIME) == omega
    assert alignment_cost(tape, aligned, budget_split_svt(w.epsilon, k)) <= w.epsilon + 1e-12
