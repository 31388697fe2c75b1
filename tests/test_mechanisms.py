from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsvt import (
    ADAPTIVE_GAP,
    AdaptiveBudget,
    Branch,
    DomainError,
    GapSvtError,
    LayoutMismatch,
    MECHANISMS,
    NoiseKind,
    NoiseTape,
    NonPositiveBudget,
    SVT_GAP,
    SensitivityViolation,
    Side,
    TapeExhausted,
    TapeLayout,
    Workload,
    budget_split_adaptive,
    budget_split_svt,
    default_budget,
    run_mechanism,
    sample_run,
    svt_classic_run,
    svt_gap_run,
)
from gapsvt.core import canonical
from gapsvt.mechanisms import SvtBudget
from gapsvt.verifier import GEN_EPSILONS, GEN_K


def zero_single(n):
    return NoiseTape(0, tuple([0] * n))


def zero_paired(n):
    return NoiseTape(0, tuple([(0, 0)] * n), TapeLayout.PAIRED)


def adaptive_run(w, budget, tape, side=Side.D):
    """The adaptive run's output and cost ledger."""
    result = run_mechanism(ADAPTIVE_GAP, w, tape, side, budget)
    return result.output, result.ledger


class TestBudgetSplits:
    def test_svt_split_unit(self):
        b = budget_split_svt(1.0, 1)
        assert (float(b.epsilon0), float(b.epsilon1)) == (0.5, 0.25)

    def test_svt_split_two_five(self):
        b = budget_split_svt(2.0, 5)
        assert (float(b.epsilon0), float(b.epsilon1)) == (1.0, 0.1)

    def test_svt_identity_exact(self):
        for eps, k in [(1.0, 1), (2.0, 5)]:
            b = budget_split_svt(eps, k)
            assert b.epsilon0 + 2 * k * b.epsilon1 == Fraction(eps)

    def test_adaptive_split_unit(self):
        b = budget_split_adaptive(1.0, 1)
        assert (float(b.epsilon0), float(b.epsilon1), float(b.epsilon2)) == (0.5, 0.125, 0.25)

    def test_adaptive_split_k2(self):
        b = budget_split_adaptive(1.0, 2)
        assert (float(b.epsilon0), float(b.epsilon1), float(b.epsilon2)) == (0.5, 0.0625, 0.125)

    def test_adaptive_invariants(self):
        for eps, k in [(1.0, 1), (1.0, 2)]:
            b = budget_split_adaptive(eps, k)
            assert b.epsilon0 + 2 * k * b.epsilon2 == Fraction(eps)
            assert b.epsilon1 <= b.epsilon2

    @given(
        eps=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        k=st.integers(min_value=1, max_value=10**6),
    )
    def test_identities_exact_for_random_inputs(self, eps, k):
        b = budget_split_svt(eps, k)
        assert b.epsilon0 + 2 * k * b.epsilon1 == Fraction(eps)
        a = budget_split_adaptive(eps, k)
        assert a.epsilon0 + 2 * k * a.epsilon2 == Fraction(eps)
        assert a.epsilon1 <= a.epsilon2

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveBudget):
            budget_split_svt(0.0, 1)
        with pytest.raises(NonPositiveBudget):
            budget_split_svt(1.0, 0)
        with pytest.raises(NonPositiveBudget):
            budget_split_adaptive(-2.0, 1)

    @pytest.mark.parametrize("split", [budget_split_svt, budget_split_adaptive])
    def test_non_integer_k_rejected(self, split):
        """A non-integer k would leave the exact rationals, and 2.0 or True
        must not hit the cached split of 2 or 1."""
        assert split(1.0, 2) is split(1.0, 2) and split(1.0, 1).epsilon0 == Fraction(1, 2)
        for k in (1.5, 2.5, 2.0, True):
            with pytest.raises(DomainError, match="k must be an integer"):
                split(1.0, k)
        assert split(1.0, np.int64(2)) == split(1.0, 2)
        w = Workload.from_values([(1, 0)] * 4, 0, 2.5, 1.0, sigma=1)
        with pytest.raises(DomainError):
            run_mechanism(ADAPTIVE_GAP, w, zero_paired(4))

    @pytest.mark.parametrize("k", [1.5, True])
    def test_direct_svt_budget_refuses_non_integer_k(self, k):
        with pytest.raises(DomainError, match="k must be an integer"):
            SvtBudget(Fraction(1, 2), Fraction(1, 6), Fraction(1), k)

    def test_noise_spec_is_built_once_per_kind(self):
        b = budget_split_svt(1.0, 1)
        assert b.noise_spec(NoiseKind.DLAP) is b.noise_spec(NoiseKind.DLAP)
        assert b.noise_spec().kind is NoiseKind.LAPLACE
        tiny = budget_split_svt(5e-324, 1)  # a subnormal epsilon has no float noise scale
        for _ in range(2):
            with pytest.raises(DomainError, match="noise role 'threshold'"):
                tiny.noise_spec()

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_shared_budgets_are_read_only(self, mechanism):
        """Budgets are cached process-wide: a write to one caller's pieces,
        weights or noise scales must not reach the next caller."""
        w = Workload.from_values([(1, 0)], 0, 1, 1.0, sigma=2)
        before = default_budget(mechanism, w)
        fresh = {kind: dict(before.noise_spec(kind).scales) for kind in NoiseKind}
        pieces, weights = dict(before.pieces), dict(before.weights)
        for view in (before.pieces, before.weights, before.noise_spec(NoiseKind.DLAP).scales):
            with pytest.raises(TypeError):
                view["threshold"] = 99.0
        after = default_budget(mechanism, w)
        assert (dict(after.pieces), dict(after.weights)) == (pieces, weights)
        assert {kind: dict(after.noise_spec(kind).scales) for kind in NoiseKind} == fresh


class TestSvtGapRun:
    def test_zero_noise_trace(self):
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 2, 1.0)
        out = svt_gap_run(w, zero_single(3))
        assert out == (("plain", 1), "bot", ("plain", 3))

    def test_stops_after_kth_top(self):
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 1, 1.0)
        out = svt_gap_run(w, zero_single(3))
        assert out == (("plain", 1),)

    def test_threshold_noise_enters_gap(self):
        w = Workload.from_values([(5, 5)], 4, 1, 1.0)
        out = svt_gap_run(w, NoiseTape(-2, (0,)))
        assert out == (("plain", 3),)

    def test_same_draw_decides_and_is_released(self):
        w = Workload.from_values([(5, 5)], 4, 1, 1.0)
        out = svt_gap_run(w, NoiseTape(0.0, (0.5,)))
        assert out[0] == ("plain", pytest.approx(1.5))

    def test_side_selector(self):
        w = Workload.from_values([(5, 4.5)], 4.8, 1, 1.0)
        assert svt_gap_run(w, zero_single(1), Side.D)[0] != "bot"
        assert svt_gap_run(w, zero_single(1), Side.DPRIME)[0] == "bot"

    def test_tape_exhausted(self):
        w = Workload.from_values([(5, 4), (6, 6)], 4, 2, 1.0)
        with pytest.raises(TapeExhausted):
            svt_gap_run(w, zero_single(1))

    def test_boundary_is_inclusive(self):
        w = Workload.from_values([(4, 4)], 4, 1, 1.0)
        out = svt_gap_run(w, zero_single(1))
        assert out == (("plain", 0),)


class TestSvtClassicRun:
    def test_zero_noise_trace(self):
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 2, 1.0)
        out = svt_classic_run(w, zero_single(3))
        assert out == ("top", "bot", "top")

    def test_k_one(self):
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 1, 1.0)
        assert svt_classic_run(w, zero_single(3)) == ("top",)

    def test_coupling_with_gap_variant(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            values = rng.uniform(-5, 5, size=n)
            deltas = rng.uniform(-1, 1, size=n)
            w = Workload.from_values(
                [(v, v - d) for v, d in zip(values, deltas)],
                float(rng.uniform(-3, 3)),
                int(rng.integers(1, 4)),
                1.0,
            )
            tape = NoiseTape(float(rng.normal()), tuple(rng.normal(size=n)))
            assert tuple(a if a == "bot" else "top" for a in svt_gap_run(w, tape)) == svt_classic_run(w, tape)


class TestAdaptiveRun:
    def test_first_branch_then_budget_stop(self):
        w = Workload.from_values([(10, 9)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        out, ledger = adaptive_run(w, budget, zero_paired(1))
        assert out == (("first", 6),)
        assert ledger.running_cost == Fraction(3, 4)  # 1/2 + 2 * 1/8

    def test_second_branch(self):
        w = Workload.from_values([(5, 4)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        out, ledger = adaptive_run(w, budget, zero_paired(1))
        assert out == (("second", 1),)
        assert ledger.running_cost == Fraction(1)

    def test_below_threshold_processes_everything(self):
        w = Workload.from_values([(0, 1), (0, 0)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        out, ledger = adaptive_run(w, budget, zero_paired(2))
        assert out == ("bot", "bot")
        assert ledger.running_cost == Fraction(1, 2)

    def test_guard_boundary_is_strict(self):
        # k=2: one expensive answer lands exactly on the guard limit and the
        # run must continue; the second one exceeds it and must stop.
        w = Workload.from_values([(5, 5), (5, 5), (5, 5)], 4, 2, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 2)
        out, ledger = adaptive_run(w, budget, zero_paired(3))
        assert len(out) == 2
        assert [a[0] for a in out] == ["second", "second"]
        assert ledger.running_cost == Fraction(1)

    def test_sigma_required(self):
        w = Workload.from_values([(5, 5)], 4, 1, 1.0)
        with pytest.raises(GapSvtError):
            adaptive_run(w, budget_split_adaptive(1.0, 1), zero_paired(1))

    def test_ledger_events_and_prefixes(self):
        w = Workload.from_values([(10, 9), (5, 5)], 4, 2, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 2)
        out, ledger = adaptive_run(w, budget, zero_paired(2))
        assert [e.branch for e in ledger.events] == [Branch.FIRST, Branch.SECOND]
        assert ledger.cost_at(0) == budget.epsilon0
        assert ledger.cost_at(1) == budget.epsilon0 + 2 * budget.epsilon1
        assert ledger.cost_at(2) == ledger.running_cost

    def test_first_branch_uses_first_draw_only(self):
        # second draw is adversarial; it must not affect a first-branch answer
        w = Workload.from_values([(10, 9)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        out, _ = adaptive_run(w, budget, NoiseTape(0, ((0, -50),), TapeLayout.PAIRED))
        assert out == (("first", 6),)


def _guard_budgets():
    """The default splits at the trial generator's (epsilon, k), and direct
    budgets whose pieces have unrelated denominators."""
    budgets = [budget_split_adaptive(eps, k) for eps in GEN_EPSILONS for k in range(GEN_K[0], GEN_K[1] + 1)]
    budgets += [
        AdaptiveBudget(Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), Fraction(2)),
        AdaptiveBudget(Fraction(2, 9), Fraction(1, 11), Fraction(3, 13), Fraction(5, 3)),
        AdaptiveBudget(Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(7, 6)),
    ]
    return budgets


class TestAdaptiveGuard:
    @pytest.mark.parametrize("budget", _guard_budgets(), ids=str)
    def test_integer_guard_matches_rational_guard(self, budget):
        first, second, headroom = budget.guard_units
        for j1 in range(9):
            for j2 in range(9):
                cost = budget.epsilon0 + j1 * 2 * budget.epsilon1 + j2 * 2 * budget.epsilon2
                assert (j1 * first + j2 * second > headroom) == (cost > budget.guard_limit), (j1, j2)

    @pytest.mark.parametrize("budget", _guard_budgets(), ids=str)
    @pytest.mark.parametrize("value", [10, 5])  # every answer first-branch, or every one second-branch
    def test_run_stops_where_rational_guard_does(self, budget, value):
        n = 8
        w = Workload.from_values([(value, value)] * n, 4, 1, float(budget.epsilon), sigma=2)
        out, ledger = adaptive_run(w, budget, zero_paired(n))
        charge = 2 * (budget.epsilon1 if value == 10 else budget.epsilon2)
        expected = n
        for j in range(1, n + 1):
            if budget.epsilon0 + j * charge > budget.guard_limit:
                expected = j
                break
        assert len(out) == expected
        assert ledger.running_cost == budget.epsilon0 + expected * charge

    @settings(max_examples=200, deadline=None)
    @given(
        budget=st.sampled_from(_guard_budgets()),
        values=st.lists(st.integers(-4, 10), min_size=1, max_size=12),
        draws=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=12, max_size=12),
        threshold_noise=st.integers(-6, 6),
        sigma=st.integers(1, 3),
    )
    def test_every_query_is_reached_within_the_guard(self, budget, values, draws, threshold_noise, sigma):
        """No query is processed once the running cost passes the guard, and
        a run never ends above epsilon, whichever branches its answers take."""
        n = len(values)
        w = Workload.from_values([(v, v) for v in values], 4, 1, float(budget.epsilon), sigma=sigma)
        out, ledger = adaptive_run(w, budget, NoiseTape(threshold_noise, tuple(draws[:n]), TapeLayout.PAIRED))
        branches = [a[0] for a in out if a != "bot"]
        for i in range(len(out)):
            before = [e for e in ledger.events if e.index < i]
            assert ledger.cost_at(len(before)) <= budget.guard_limit, i
        assert len(branches) == len(ledger.events)
        assert ledger.running_cost == ledger.cost_at(len(ledger.events)) <= budget.epsilon


class TestRunMechanism:
    def test_consumed_counts(self):
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 1, 1.0)
        res = run_mechanism(SVT_GAP, w, zero_single(3))
        assert res.consumed == 1 + len(res.output)
        wa = Workload.from_values([(10, 9), (0, 0)], 4, 1, 1.0, sigma=2)
        ra = run_mechanism(ADAPTIVE_GAP, wa, zero_paired(2))
        assert ra.consumed == 1 + 2 * len(ra.output)

    def test_tape_errors(self):
        w = Workload.from_values([(0, 0), (0, 1)], 4, 1, 1.0, sigma=2)
        for mechanism, wrong_layout in ((SVT_GAP, zero_paired(2)), (ADAPTIVE_GAP, zero_single(2))):
            with pytest.raises(LayoutMismatch):
                run_mechanism(mechanism, w, wrong_layout)
        with pytest.raises(TapeExhausted):
            run_mechanism(ADAPTIVE_GAP, w, zero_paired(1))
        # single layout: k = 2 does not stop after the first answer, so the
        # second query reads past a 1-entry tape
        single = Workload.from_values([(5, 4), (6, 6)], 4, 2, 1.0)
        with pytest.raises(TapeExhausted):
            run_mechanism(SVT_GAP, single, zero_single(1))
        # a run that stops before the end of a short tape does not read past it
        stop = Workload.from_values([(10, 9), (0, 0)], 4, 1, 1.0, sigma=2)
        assert len(run_mechanism(ADAPTIVE_GAP, stop, zero_paired(1)).output) == 1

    def test_unknown_mechanism(self):
        w = Workload.from_values([(1, 1)], 0, 1, 1.0)
        with pytest.raises(GapSvtError):
            run_mechanism("noisy-max", w, zero_single(1))

    def test_every_run_is_gated(self):
        """The one entry gates each mechanism's workload, the two plain runs
        through it included, and rejects an unknown name as DomainError."""
        bad = Workload.from_values([(3, 0)], 0, 1, 1.0, sigma=1)
        runs = [
            lambda: svt_gap_run(bad, zero_single(1)),
            lambda: svt_classic_run(bad, zero_single(1)),
            lambda: run_mechanism(ADAPTIVE_GAP, bad, zero_paired(1)),
        ]
        for run in runs:
            with pytest.raises(SensitivityViolation):
                run()
        w = Workload.from_values([(1, 1)], 0, 1, 1.0)
        with pytest.raises(DomainError, match="unknown mechanism 'noisy-max'"):
            run_mechanism("noisy-max", w, zero_single(1))

    def test_a_plain_run_ignores_its_budget(self):
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 2, 1.0)
        tape = NoiseTape(0.25, (0.5, -1.0, 2.0))
        with_budget = run_mechanism(SVT_GAP, w, tape, Side.D, budget_split_svt(2.0, 1))
        assert with_budget == run_mechanism(SVT_GAP, w, tape)

    def test_prefix_determinism(self):
        # truncating the tape to what was consumed reproduces the output
        w = Workload.from_values([(5, 4), (3, 3), (7, 7)], 4, 1, 1.0)
        tape = NoiseTape(0.25, (0.5, -1.0, 2.0))
        out = svt_gap_run(w, tape)
        truncated = NoiseTape(0.25, tape.per_query[: len(out)])
        assert svt_gap_run(w, truncated) == out

    def test_prefix_determinism_paired(self):
        w = Workload.from_values([(10, 9), (5, 5), (0, 0)], 4, 1, 1.0, sigma=2)
        budget = budget_split_adaptive(1.0, 1)
        tape = NoiseTape(0.5, ((1.0, 0.0), (0.0, 2.0), (3.0, 1.0)), TapeLayout.PAIRED)
        out, _ = adaptive_run(w, budget, tape)
        truncated = NoiseTape(0.5, tape.per_query[: len(out)], TapeLayout.PAIRED)
        out2, _ = adaptive_run(w, budget, truncated)
        assert out2 == out

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_a_run_returns_its_answers_as_a_tuple(self, mechanism):
        w = Workload.from_values([(5, 4), (3, 4)], 4, 2, 1.0, sigma=1)
        tape = zero_paired(2) if mechanism == ADAPTIVE_GAP else zero_single(2)
        out = run_mechanism(mechanism, w, tape).output
        assert type(out) is tuple and len(out) == 2
        if mechanism != ADAPTIVE_GAP:
            run = svt_gap_run if mechanism == SVT_GAP else svt_classic_run
            assert type(run(w, tape)) is tuple and run(w, tape) == out

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("side", ["d", "dprime"])
    def test_a_side_given_as_its_string_value_is_a_domain_error(self, mechanism, side):
        w = Workload.from_values([(5, 4), (3, 4)], 4, 1, 1.0, sigma=1)
        tape = zero_paired(2) if mechanism == ADAPTIVE_GAP else zero_single(2)
        with pytest.raises(DomainError, match=f"side must be a Side, got {side!r}"):
            run_mechanism(mechanism, w, tape, side)


def sampled_output(mechanism, w, side, seed, kind=NoiseKind.LAPLACE):
    return sample_run(mechanism, w, side, seed, kind)[0].output


class TestSampleRun:
    def test_deterministic(self):
        w = Workload.from_values([(5, 4), (3, 3)], 4, 1, 1.0)
        a = sampled_output(SVT_GAP, w, Side.D, seed=77)
        b = sampled_output(SVT_GAP, w, Side.D, seed=77)
        assert a == b

    def test_seeds_differ(self):
        w = Workload.from_values([(5, 4), (3, 3)], 4, 1, 1.0)
        outs = {canonical(sampled_output(SVT_GAP, w, Side.D, seed=s), 9) for s in range(64)}
        assert len(outs) > 1

    @pytest.mark.slow
    def test_invariants_over_many_seeds(self):
        w = Workload.from_values([(5, 4), (4, 5)], 4, 2, 1.0)
        wa = Workload.from_values([(5, 4), (4, 5)], 4, 1, 1.0, sigma=1.5)
        for seed in range(10**5):
            out = sampled_output(SVT_GAP, w, Side.D, seed)
            assert len(out) - out.count("bot") <= w.k
            assert all(a[1] >= 0 for a in out if a != "bot")
            outa = sampled_output(ADAPTIVE_GAP, wa, Side.D, seed)
            for a in outa:
                if a != "bot":
                    assert a[1] >= 0
                    if a[0] == "first":
                        assert a[1] >= wa.sigma

    def test_discrete_kind(self):
        w = Workload.from_values([(5, 4)], 4, 1, 1.0)
        out = sampled_output(SVT_GAP, w, Side.D, seed=5, kind=NoiseKind.DLAP)
        for a in out:
            if a != "bot":
                assert float(a[1]).is_integer()


@given(
    n=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_top_count_and_gap_invariants(n, k, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-5, 5, size=n)
    deltas = rng.uniform(-1, 1, size=n)
    w = Workload.from_values([(v, v - d) for v, d in zip(values, deltas)], 0.0, k, 1.0)
    tape = NoiseTape(float(rng.normal()), tuple(rng.normal(size=n)))
    out = svt_gap_run(w, tape)
    assert len(out) - out.count("bot") <= k
    assert all(a[1] >= 0 for a in out if a != "bot")
    assert len(out) <= n
    if len(out) - out.count("bot") == k:
        assert out[-1] != "bot"
