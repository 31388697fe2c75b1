import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapsvt import (
    ADAPTIVE_GAP,
    DomainError,
    DomainMismatch,
    GapSvtError,
    GridBudgetExceeded,
    MECHANISMS,
    Mutation,
    NoiseKind,
    NonPositiveBudget,
    NoiseTape,
    OutputDistribution,
    SVT_CLASSIC,
    SVT_GAP,
    Side,
    TapeLayout,
    TrialPlan,
    Witness,
    Workload,
    check_alignment_soundness,
    check_dp_exact,
    default_budget,
    default_enumeration_instances,
    enumerate_output_dist,
    max_privacy_loss,
    mc_output_dist,
    mc_privacy_estimate,
    replay_witness,
    run_mechanism,
    run_trial_suites,
    tv_distance,
)
import gapsvt
from gapsvt import mechanisms, vectorized, verifier
from gapsvt.core import NoiseSpec, canonical
from gapsvt.verifier import (
    GEN_BOUNDARY,
    GEN_EPSILONS,
    GEN_K,
    GEN_N,
    GEN_REAL,
    GEN_SIGMA_HI,
    GEN_VALUE_HI,
    generate_workload,
    trial_rng,
)


class TestWorkloadGeneration:
    def test_always_satisfies_sensitivity(self):
        plan = TrialPlan(SVT_GAP, trials=1, master_seed=0)
        for idx in range(2000):
            w, kind = generate_workload(plan, trial_rng(3, idx))
            assert all(abs(d) <= 1 for d in w.deltas())
            assert len(w.d) == len(w.dprime) >= 1 and w.k >= 1 and w.epsilon > 0

    def test_boundary_fraction_roughly_respected(self):
        plan = TrialPlan(SVT_GAP, trials=1, master_seed=0)
        boundary = 0
        total = 4000
        for idx in range(total):
            w, kind = generate_workload(plan, trial_rng(5, idx))
            if kind is NoiseKind.DLAP and all(abs(d) == 1 for d in w.deltas()) and all(
                abs(v - w.threshold) <= 1 for v in w.d
            ):
                boundary += 1
        assert 0.18 < boundary / total < 0.35

    def test_adaptive_workloads_carry_sigma(self):
        plan = TrialPlan(ADAPTIVE_GAP, trials=1, master_seed=0)
        for idx in range(200):
            w, _ = generate_workload(plan, trial_rng(7, idx))
            assert w.sigma is not None and w.sigma >= 0

    @staticmethod
    def _mode(seed, idx):
        # the mode's uniform is the fourth of the workload's block
        return trial_rng(seed, idx).random(4)[3]

    def test_default_spec_support_and_mode_shares(self):
        plan = TrialPlan(ADAPTIVE_GAP, trials=1, master_seed=0)
        lo, hi = 0, GEN_VALUE_HI
        total = 4000
        modes = Counter()
        seen = {"n": set(), "k": set(), "epsilon": set(), "int_sigma": set()}
        for idx in range(total):
            w, kind = generate_workload(plan, trial_rng(11, idx))
            seen["n"].add(len(w))
            seen["k"].add(w.k)
            seen["epsilon"].add(w.epsilon)
            u = self._mode(11, idx)
            deltas = w.deltas()
            if u < GEN_BOUNDARY:
                modes["boundary"] += 1
                assert kind is NoiseKind.DLAP and lo <= w.threshold <= hi
                assert all(d in (-1, 1) for d in deltas)
                assert all(abs(v - w.threshold) <= 1 for v in w.d)
            elif u < GEN_REAL:
                modes["real"] += 1
                assert kind is NoiseKind.LAPLACE and lo <= w.threshold < hi
                assert all(lo <= v < hi for v in w.d)
                assert all(-1 <= d <= 1 for d in deltas)
                assert 0 <= w.sigma < GEN_SIGMA_HI
            else:
                modes["integer"] += 1
                assert kind is NoiseKind.DLAP and lo <= w.threshold <= hi
                assert all(lo <= v <= hi for v in w.d)
                assert all(d in (-1, 0, 1) for d in deltas)
            if kind is NoiseKind.DLAP:
                assert all(isinstance(x, int) for x in (*w.d, *w.dprime))
                seen["int_sigma"].add(w.sigma)
        assert seen["n"] == set(range(GEN_N[0], GEN_N[1] + 1))
        assert seen["k"] == set(range(GEN_K[0], GEN_K[1] + 1))
        assert seen["epsilon"] == set(GEN_EPSILONS)
        assert seen["int_sigma"] == {0, 1, 2, 3}
        # binomial standard deviations are about 0.008 at 4000 trials
        for mode, share in (("boundary", 0.25), ("real", 0.375), ("integer", 0.375)):
            assert abs(modes[mode] / total - share) < 0.035, (mode, modes)

    # The first trials of seed 156, a boundary, an integer and a real-valued
    # one: a witness's trial_index names its workload only while these hold.
    FIRST_TRIALS_OF_156 = [
        (Workload((6,), (7,), 5, 1, 0.5, 3), NoiseKind.DLAP),
        (Workload((17,), (16,), 2, 3, 0.5, 1), NoiseKind.DLAP),
        (
            Workload(
                (3.9374958675951355, 0.17731580445002892, 11.442543425259391),
                (3.96325195740263, -0.5024067138486077, 11.378074688026304),
                14.73035117504233,
                3,
                1.0,
                0.4176895002510408,
            ),
            NoiseKind.LAPLACE,
        ),
    ]

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_first_trials_of_a_seed_are_pinned(self, mechanism):
        plan = TrialPlan(mechanism, trials=1, master_seed=0)
        for idx, (w, kind) in enumerate(self.FIRST_TRIALS_OF_156):
            if mechanism != ADAPTIVE_GAP:
                w = dataclasses.replace(w, sigma=None)
            # compared by repr, where an int and an equal float differ
            assert repr(generate_workload(plan, trial_rng(156, idx))) == repr((w, kind))

    def test_trial_streams_are_pcg64_jumps_of_the_master_seed(self):
        for i in (0, 1, 7, 12345):
            jumped = np.random.Generator(np.random.PCG64(42).jumped(i))
            assert np.array_equal(trial_rng(42, i).random(8), jumped.random(8))

    def test_first_draws_are_uniform_across_trials(self):
        """Trials whose streams start 2**64 draws apart share the low half of
        PCG64's state, and the uniforms that open their workload blocks
        bunch: chi-square 19 to 168 on 9 degrees of freedom over 10**4 trials
        of this seed, depending on the position.  The jump's streams stay
        under the bound (p about 1e-6) at every position."""
        heads = np.array([rng.random(6) for _, rng in verifier._trial_streams(20240801, 10**4)])
        for column in heads.T:
            counts = np.histogram(column, bins=10, range=(0.0, 1.0))[0]
            assert ((counts - 1000) ** 2 / 1000).sum() < 45


class TestTrialSuites:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_all_suites_pass(self, mechanism):
        plan = TrialPlan(mechanism, trials=2500, master_seed=101)
        reports = run_trial_suites(plan)
        for name, rep in reports.items():
            assert rep.passed, (name, rep.witness and rep.witness.detail)
        assert reports["cost"].max_cost <= max(GEN_EPSILONS) + 1e-12

    def test_single_suite_runs_match_combined_run(self):
        plan = TrialPlan(SVT_GAP, trials=300, master_seed=5)
        combined = run_trial_suites(plan)
        assert check_alignment_soundness(plan).to_json_dict() == combined["align"].to_json_dict()
        for suite in ("cost", "structural"):
            assert run_trial_suites(plan, (suite,))[suite].to_json_dict() == combined[suite].to_json_dict()

    @pytest.mark.parametrize(
        "mechanism,mutation",
        [
            (SVT_GAP, Mutation.THRESHOLD_SHIFT),
            (SVT_GAP, Mutation.QUERY_SHIFT),
            (SVT_CLASSIC, Mutation.THRESHOLD_SHIFT),
            (ADAPTIVE_GAP, Mutation.THRESHOLD_SHIFT),
            (ADAPTIVE_GAP, Mutation.QUERY_SHIFT),
            (ADAPTIVE_GAP, Mutation.DROP_SECOND_BRANCH),
        ],
    )
    def test_mutations_detected_with_replayable_witness(self, mechanism, mutation):
        plan = TrialPlan(mechanism, trials=10**4, master_seed=31, mutation=mutation)
        report = check_alignment_soundness(plan)
        assert report.verdict == "fail"
        assert report.witness is not None
        assert report.witness.trial_index < 10**4
        assert replay_witness(report.witness)

    def test_witness_noise_is_the_trial_noise_kind(self):
        kinds = set()
        for seed in (17, 18):
            plan = TrialPlan(SVT_GAP, trials=10**3, master_seed=seed, mutation=Mutation.THRESHOLD_SHIFT)
            report = check_alignment_soundness(plan)
            assert report.verdict == "fail" and report.witness.kind == "soundness"
            _, kind = generate_workload(plan, trial_rng(seed, report.witness.trial_index))
            assert report.witness.noise == kind.value
            assert replay_witness(report.witness)
            kinds.add(kind)
        assert kinds == {NoiseKind.DLAP, NoiseKind.LAPLACE}

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("mutation", [None, Mutation.THRESHOLD_SHIFT])
    def test_structural_alone_matches_combined_run(self, mechanism, mutation, monkeypatch):
        # with a mutation, align and cost fail early and stop, so the combined
        # run's later structural trials run without them
        plan = TrialPlan(mechanism, trials=300, master_seed=23, mutation=mutation)
        structural_trial = verifier._structural_trial

        def checked(mechanism, rng, w, budget, spec, tape, forward):
            # the run handed over by the trial loop is the run on (w, tape, D)
            assert forward == run_mechanism(mechanism, w, tape, Side.D, budget)
            return structural_trial(mechanism, rng, w, budget, spec, tape, forward)

        monkeypatch.setattr(verifier, "_structural_trial", checked)
        combined = run_trial_suites(plan)["structural"]
        alone = run_trial_suites(plan, ("structural",))["structural"]
        if mutation is not None:
            stopped = run_trial_suites(plan, ("align", "cost")).values()
            assert all(r.witness.trial_index < plan.trials - 1 for r in stopped)
        assert alone.verdict == combined.verdict
        assert alone.checks_run == combined.checks_run > 0
        assert alone.witness == combined.witness
        assert alone.to_json_dict() == combined.to_json_dict()

    def test_clean_witness_replay_is_negative(self):
        # a witness assembled from a passing configuration must not replay
        plan = TrialPlan(SVT_GAP, trials=50, master_seed=3, mutation=Mutation.THRESHOLD_SHIFT)
        report = check_alignment_soundness(plan)
        fixed = report.witness.__class__(**{**report.witness.__dict__, "mutation": None})
        assert not replay_witness(fixed)

    @pytest.mark.parametrize("mechanism", [SVT_GAP, ADAPTIVE_GAP])
    def test_cost_witness_replays(self, mechanism):
        plan = TrialPlan(mechanism, trials=100, master_seed=31, mutation=Mutation.THRESHOLD_SHIFT)
        report = run_trial_suites(plan, ("cost",))["cost"]
        assert report.verdict == "fail"
        assert (report.witness.kind, report.witness.trial_index) == ("cost", 0)
        assert replay_witness(report.witness)
        assert not replay_witness(dataclasses.replace(report.witness, mutation=None))

    @pytest.mark.parametrize("suite,predicate", [("align", "_soundness_failure"), ("cost", "_cost_failure")])
    def test_replay_runs_the_trial_predicate(self, suite, predicate, monkeypatch):
        calls = []
        original = getattr(verifier, predicate)

        def spy(*args):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(verifier, predicate, spy)
        plan = TrialPlan(ADAPTIVE_GAP, trials=100, master_seed=31, mutation=Mutation.THRESHOLD_SHIFT)
        report = run_trial_suites(plan, (suite,))[suite]
        assert report.verdict == "fail" and calls
        del calls[:]
        assert replay_witness(report.witness)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["structural", "dp-mc"])
    def test_witness_kinds_without_replay_raise(self, kind):
        w = default_enumeration_instances(SVT_GAP)[0].to_json_dict()
        witness = Witness(kind=kind, mechanism=SVT_GAP, noise="dlap", workload=w, detail="")
        with pytest.raises(DomainError):
            replay_witness(witness)

    def test_report_json_serializable(self):
        plan = TrialPlan(SVT_GAP, trials=100, master_seed=3, mutation=Mutation.QUERY_SHIFT)
        report = check_alignment_soundness(plan)
        payload = json.dumps(report.to_json_dict())
        assert "witness" in payload


def _adaptive_ledger_case():
    """A real adaptive run with two charged events, a first-branch positive
    and then a second-branch one, after which the guard stops the run."""
    w = Workload.from_values([(10, 9), (5, 5), (3, 3)], 4, 2, 1.0, sigma=2)
    budget = default_budget(ADAPTIVE_GAP, w)
    tape = NoiseTape(0, ((0, 0),) * 3, TapeLayout.PAIRED)
    result = run_mechanism(ADAPTIVE_GAP, w, tape, Side.D, budget)
    assert [e.branch.value for e in result.ledger.events] == ["first", "second"]
    return w, budget, tape, result


def _ledger_verdict(ledger, output=None):
    """The cost predicate's verdict on the real run with ``ledger`` (and
    ``output``) in place of its own."""
    w, budget, tape, result = _adaptive_ledger_case()
    run = mechanisms.RunResult(output or result.output, result.consumed, ledger)
    aligned = verifier._align_for(ADAPTIVE_GAP)(tape, run.output, w, None)
    return verifier._cost_failure(ADAPTIVE_GAP, w, tape, aligned, run, budget, True)[1]


class TestLedgerDrills:
    """Each defect the exact ledger check names, drilled on a corrupted copy
    of a real adaptive ledger; the messages are the check's own."""

    @staticmethod
    def _real():
        return _adaptive_ledger_case()[3].ledger

    def _events(self, **changes):
        ledger = self._real()
        events = list(ledger.events)
        for step, fields in changes.items():
            events[int(step[1:])] = dataclasses.replace(events[int(step[1:])], **fields)
        return dataclasses.replace(ledger, events=events)

    def test_real_ledger_passes(self):
        assert _ledger_verdict(self._real()) is None

    def test_wrong_initial(self):
        ledger = dataclasses.replace(self._real(), initial=Fraction(9, 16))
        assert _ledger_verdict(ledger) == "ledger starts at 9/16, expected epsilon0 1/2"

    def test_event_at_the_wrong_index(self):
        ledger = self._events(e1={"index": 2})
        assert _ledger_verdict(ledger) == "ledger event 1 is (2, 1/4), expected (1, 1/4)"

    def test_wrong_increment(self):
        ledger = self._events(e0={"increment": Fraction(1, 4)})
        assert _ledger_verdict(ledger) == "ledger event 0 is (0, 1/4), expected (0, 1/8)"

    def test_missing_event(self):
        ledger = self._real()
        ledger = dataclasses.replace(ledger, events=ledger.events[:1])
        assert _ledger_verdict(ledger) == "missing ledger event for positive answer at query 1"

    def test_extra_event(self):
        ledger = self._real()
        extra = dataclasses.replace(ledger.events[0], index=2)
        ledger = dataclasses.replace(ledger, events=[*ledger.events, extra])
        assert _ledger_verdict(ledger) == "ledger has more events than positive answers"

    def test_prefix_sum_diverges(self):
        ledger = self._real()
        bad = dataclasses.replace(ledger)
        bad.cost_at = lambda step: ledger.cost_at(step) + (step == 1) * Fraction(1, 16)
        assert _ledger_verdict(bad) == "ledger prefix cost after 1 events diverges"

    def test_recorded_running_cost_diverges(self):
        ledger = self._events(e0={"running_cost": Fraction(9, 16)})
        assert _ledger_verdict(ledger) == "ledger prefix cost after 1 events diverges"

    def test_wrong_final_running_cost(self):
        ledger = self._real()
        ledger = dataclasses.replace(ledger, running_cost=ledger.running_cost + Fraction(1, 16))
        assert _ledger_verdict(ledger) == "final ledger cost does not match the per-event sum"

    def test_query_processed_past_the_guard(self):
        # an output that answers the third query after the guard should have stopped the run
        output = (*self._real_output(), ("second", 1))
        assert _ledger_verdict(self._real(), output) == (
            "query 2 was processed with running cost 7/8 above the guard limit"
        )

    @staticmethod
    def _real_output():
        return _adaptive_ledger_case()[3].output


class TestEnumeration:
    def test_identical_sides_give_identical_distributions(self):
        w = Workload.from_values([(1, 1), (0, 0)], 0, 1, 1.0)
        p = enumerate_output_dist(SVT_GAP, w, Side.D)
        q = enumerate_output_dist(SVT_GAP, w, Side.DPRIME)
        assert p.masses == q.masses

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_normalization(self, mechanism):
        w = default_enumeration_instances(mechanism)[0]
        dist = enumerate_output_dist(mechanism, w, Side.D)
        assert dist.normalization_defect() < 1e-9
        assert dist.truncation_loss < 1e-9
        assert all(m >= 0 for m in dist.masses.values())

    @pytest.mark.parametrize(
        "mechanism, w, box, side",
        [
            (SVT_GAP, Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0), 5, Side.D),
            (SVT_CLASSIC, Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0), 5, Side.D),
            # paired layout: 5 axes of 7 points
            (ADAPTIVE_GAP, Workload.from_values([(1, 0), (0, 1)], 0, 2, 1.0, sigma=1), 3, Side.D),
            # k=1 over 3 queries: runs stop after a positive with queries unread
            (SVT_GAP, Workload.from_values([(1, 0), (0, 1), (1, 1)], 0, 1, 1.0), 3, Side.D),
            (SVT_CLASSIC, Workload.from_values([(1, 0), (0, 1), (1, 1)], 0, 1, 1.0), 3, Side.D),
            (SVT_GAP, Workload.from_values([(1, 0), (0, 1), (1, 1)], 0, 1, 1.0), 3, Side.DPRIME),
            # the guard stops the run after two positives unless both took the
            # first branch, with the third query unread
            (ADAPTIVE_GAP, Workload.from_values([(1, 0), (0, 1), (1, 1)], 0, 2, 8.0, sigma=1), 1, Side.D),
            # default boxes of unequal bounds on the paired layout, [7, 28, 14]:
            # each threshold draw reads its own window of the difference grids
            (ADAPTIVE_GAP, Workload.from_values([(1, 0)], 0, 1, 8.0, sigma=1), None, Side.D),
            (ADAPTIVE_GAP, Workload.from_values([(1, 0)], 0, 1, 8.0, sigma=1), None, Side.DPRIME),
        ],
    )
    def test_per_query_equals_per_tape(self, mechanism, w, box, side):
        a = enumerate_output_dist(mechanism, w, side, box=box, method="per-tape")
        b = enumerate_output_dist(mechanism, w, side, box=box, method="per-query")
        assert set(a.masses) == set(b.masses)
        for key in a.masses:
            assert a.masses[key] == pytest.approx(b.masses[key], rel=1e-13, abs=0)

    def test_oracle_work_is_per_query_not_per_threshold_draw(self, monkeypatch):
        """svt-gap curated #6 has 57 threshold draws and about 19,700 outputs
        a side.  The oracle runs the kernel once for each of a side's two
        values, and decodes each query's answers once, not each output's
        row."""
        w = default_enumeration_instances(SVT_GAP)[6]
        calls = Counter()
        for name in ("run_status_gaps", "decode_row"):
            real = getattr(verifier, name)

            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(verifier, name, spy)
        for side in Side:
            calls.clear()
            dist = enumerate_output_dist(SVT_GAP, w, side)
            answers = [set(), set()]  # the distinct answers at each position
            for key in dist.masses:
                for position, answer in enumerate(key):
                    answers[position].add(answer)
            assert calls["run_status_gaps"] == dist.meta["stats"]["kernel_runs"] == len(set(w.values(side))) == 2
            assert 0 < calls["decode_row"] <= sum(map(len, answers)) < len(dist.masses) // 50
            assert len(dist.masses) > 19_000

    @pytest.mark.parametrize(
        "mechanism,w",
        [
            (SVT_GAP, default_enumeration_instances(SVT_GAP)[6]),
            (SVT_CLASSIC, default_enumeration_instances(SVT_CLASSIC)[5]),
            (ADAPTIVE_GAP, default_enumeration_instances(ADAPTIVE_GAP)[8]),
            (SVT_GAP, Workload.from_values([(0, 1), (100000, 100001)], 0, 1, 1.0)),
            (ADAPTIVE_GAP, Workload.from_values([(0, 1), (200, 201), (1, 0)], 0, 1, 8.0, sigma=1)),
        ],
    )
    def test_stats_count_the_kernel_and_decoder_calls(self, mechanism, w, monkeypatch):
        """``meta["stats"]`` counts what spies on the kernel and on
        ``decode_row`` see: kernel runs, one per distinct value, and grid
        points, and the answers decoded."""
        runs, points, decoded = [], [], []
        real_kernel, real_decode = verifier.run_status_gaps, verifier.decode_row

        def kernel(mechanism, wq, side, budget, eta0, draws):
            runs.append(wq.d)
            points.append(len(draws[0]))
            return real_kernel(mechanism, wq, side, budget, eta0, draws)

        def decode(mechanism, row):
            decoded.append(row)
            return real_decode(mechanism, row)

        monkeypatch.setattr(verifier, "run_status_gaps", kernel)
        monkeypatch.setattr(verifier, "decode_row", decode)
        for side in Side:
            for seen in (runs, points, decoded):
                seen.clear()
            dist = enumerate_output_dist(mechanism, w, side)
            assert dist.meta["stats"] == {
                "kernel_runs": len(runs),
                "kernel_points": sum(points),
                "largest_step_cells": dist.meta["stats"]["largest_step_cells"],
                "answers_decoded": len(decoded),
            }
            assert len(runs) == len(set(w.values(side)))

    @pytest.mark.parametrize("mechanism,index", [(SVT_GAP, 6), (ADAPTIVE_GAP, 2)])
    def test_largest_step_is_what_the_cap_must_allow(self, mechanism, index, monkeypatch):
        w = default_enumeration_instances(mechanism)[index]
        dist = enumerate_output_dist(mechanism, w, Side.D)
        largest = dist.meta["stats"]["largest_step_cells"]
        monkeypatch.setattr(verifier, "ENUM_CELL_CAP", largest)
        assert list(enumerate_output_dist(mechanism, w, Side.D).masses.items()) == list(dist.masses.items())
        monkeypatch.setattr(verifier, "ENUM_CELL_CAP", largest - 1)
        with pytest.raises(GridBudgetExceeded) as info:
            enumerate_output_dist(mechanism, w, Side.D)
        assert info.value.needed == largest

    def test_far_apart_values_run_the_kernel_apart(self):
        """One kernel run over the margins of values 0 and 100000 would take
        4e10 cells; each value runs alone, and the report is the one the
        per-value tables gave."""
        w = Workload.from_values([(0, 1), (100000, 100001)], 0, 1, 1.0)
        report, loss = check_dp_exact(SVT_GAP, w)
        assert report.passed and loss.outputs == report.checks_run == 499
        assert report.notes["certified_max"] == 0.3770560110556953
        for side in Side:
            assert enumerate_output_dist(SVT_GAP, w, side).meta["stats"]["kernel_runs"] == 2

    def test_far_apart_adaptive_values_match_the_per_tape_runs(self):
        """Values 0, 1 and 200 run the kernel once each on each side; on a
        box of one the masses are the per-tape runs'."""
        w = Workload.from_values([(0, 1), (200, 201), (1, 0)], 0, 1, 8.0, sigma=1)
        for side in Side:
            a = enumerate_output_dist(ADAPTIVE_GAP, w, side, box=1, method="per-tape")
            b = enumerate_output_dist(ADAPTIVE_GAP, w, side, box=1)
            assert b.meta["stats"]["kernel_runs"] == 3
            assert set(a.masses) == set(b.masses)
            for key in a.masses:
                assert a.masses[key] == pytest.approx(b.masses[key], rel=1e-13, abs=0)
            assert enumerate_output_dist(ADAPTIVE_GAP, w, side).meta["stats"]["kernel_runs"] == 3
        report, loss = check_dp_exact(ADAPTIVE_GAP, w)
        assert report.passed and loss.outputs == 131
        assert report.notes["certified_max"] == 3.4843814704182643

    @pytest.mark.parametrize("shift", [-7, 5, 1000])
    def test_shifting_values_and_threshold_keeps_the_masses(self, shift):
        """Answers depend on a value only through its margin over the noisy
        threshold, so adding one integer to every value and to the threshold
        leaves every curated instance's distribution as it is, bit for bit."""
        for mechanism in MECHANISMS:
            for w in default_enumeration_instances(mechanism):
                moved = Workload.from_values(
                    [(a + shift, b + shift) for a, b in zip(w.d, w.dprime)], w.threshold + shift, w.k, w.epsilon, sigma=w.sigma
                )
                for side in Side:
                    a = enumerate_output_dist(mechanism, w, side)
                    b = enumerate_output_dist(mechanism, moved, side)
                    assert list(a.masses.items()) == list(b.masses.items())

    @settings(max_examples=300, deadline=None)
    @given(
        mechanism=st.sampled_from(MECHANISMS),
        offset=st.integers(-12, 12),
        sigma=st.integers(0, 3),
        reach=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        spread=st.integers(0, 4),
    )
    def test_each_code_covers_a_box_of_the_kernel_grid(self, mechanism, offset, sigma, reach, spread):
        """Over a grid of margins, the points at which the kernel gives one
        answer code form a box: every point of the box holds the code, and
        on each role its range is one point or touches an end of the grid.
        The oracle gathers each answer's mass from the noise law on that."""
        reach = reach if mechanism == ADAPTIVE_GAP else reach[:1]  # one query role per draw layout
        w = Workload.from_values([(offset, offset)], 0, 1, 1.0, sigma=sigma if mechanism == ADAPTIVE_GAP else None)
        axes = [np.arange(-r, r + spread + 1) for r in reach]
        margins = np.meshgrid(*axes, indexing="ij")
        status, gaps = vectorized.run_status_gaps(
            mechanism, w, Side.D, default_budget(mechanism, w), 0, [m.reshape(-1, 1) for m in margins]
        )
        grid = vectorized.encode_int_rows(mechanism, status, gaps).reshape([len(a) for a in axes])
        for code in np.unique(grid):
            where = np.nonzero(grid == code)
            assert (grid[tuple(slice(i.min(), i.max() + 1) for i in where)] == code).all()
            for i, a in zip(where, axes):
                assert i.min() == i.max() or i.min() == 0 or i.max() == len(a) - 1

    @pytest.mark.parametrize("mechanism", [SVT_GAP, ADAPTIVE_GAP])
    def test_codes_off_their_boxes_raise(self, mechanism, monkeypatch):
        """A code map that is no set of boxes, a checkerboard of two codes
        over the grid, breaks the premise the masses are gathered on: the
        oracle raises instead of returning masses."""

        def checkerboard(mechanism, status, gaps):
            return (np.arange(len(status)) % 2 + 1).reshape(-1, 1)

        monkeypatch.setattr(verifier, "encode_int_rows", checkerboard)
        w = Workload.from_values([(0, 1)], 0, 1, 8.0, sigma=1 if mechanism == ADAPTIVE_GAP else None)
        with pytest.raises(RuntimeError, match="boxes"):
            enumerate_output_dist(mechanism, w, Side.D)

    @pytest.mark.parametrize("method", ["per-query", "per-tape"])
    @pytest.mark.parametrize(
        "pairs,threshold,box,named",
        [
            ([(2**53 + 2.0, 2**53 + 2.0)], 2**53, 6, "threshold 9007199254740992 plus 6"),
            ([(1e17, 1e17)], 1e17, None, "threshold 1e+17"),
            ([(2.0**53, 2.0**53)], 0, 1, "value 9007199254740992.0 plus 2"),
            ([(2**61, 2**61)], 0, 0, "value 2305843009213693952 plus 0"),
        ],
    )
    def test_past_the_exact_integer_range_is_a_domain_error(self, method, pairs, threshold, box, named):
        """Past 2**53 a float sum rounds, so the methods disagreed (16
        outputs per tape against 9 on the first input); past 2**61 an int64
        answer code overflows."""
        w = Workload.from_values(pairs, threshold, 1, 1.0)
        with pytest.raises(DomainError, match=r"2\*\*(53|61)") as info:
            enumerate_output_dist(SVT_GAP, w, Side.D, box=box, method=method)
        assert named in str(info.value)

    @pytest.mark.parametrize(
        "pairs,threshold,box",
        [
            ([(2**53 + 1, 2**53)], 0, None),
            ([(2**53 + 1, 2**53)], 2**53, None),
            ([(2.0**53, 2.0**53)], 2.0**53, 0),
            ([(2**61 - 1, 2**61 - 1)], 0, 0),
        ],
    )
    def test_inside_the_exact_integer_range_matches_the_per_tape_runs(self, pairs, threshold, box):
        w = Workload.from_values(pairs, threshold, 1, 1.0)
        for side in Side:
            a = enumerate_output_dist(SVT_GAP, w, side, box=box, method="per-tape")
            b = enumerate_output_dist(SVT_GAP, w, side, box=box)
            assert set(a.masses) == set(b.masses)
            for key in a.masses:
                assert a.masses[key] == pytest.approx(b.masses[key], rel=1e-13, abs=0)

    def test_repeated_calls_are_bit_identical(self):
        w = default_enumeration_instances(ADAPTIVE_GAP)[5]
        a = enumerate_output_dist(ADAPTIVE_GAP, w, Side.D)
        b = enumerate_output_dist(ADAPTIVE_GAP, w, Side.D)
        assert list(a.masses.items()) == list(b.masses.items())

    @pytest.mark.parametrize(
        "mechanism,w",
        [
            (SVT_GAP, Workload.from_values([(1, 0), (0, 1), (1, 1)], 0, 3, 1.0)),
            (ADAPTIVE_GAP, Workload.from_values([(1, 0)], 0, 1, 0.1, sigma=1)),
        ],
    )
    def test_cell_cap_refuses_before_building_the_table(self, mechanism, w):
        """svt-gap over 3 queries with k=3 at epsilon 1 needs just over
        ``ENUM_CELL_CAP`` cells at its second position, and adaptive-gap at
        epsilon 0.1 has a 9.8e6-point query grid, 157 MB of draws, to run
        once per threshold draw.  Both are refused in well under a second,
        with no table of that size allocated."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(GridBudgetExceeded) as info:
                enumerate_output_dist(mechanism, w, Side.D)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.budget == verifier.ENUM_CELL_CAP < info.value.needed
        assert "cells" in str(info.value) and "--" not in str(info.value)
        assert elapsed < 1.0
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "mechanism,pairs",
        [
            (SVT_GAP, [(1, 0), (0, 1), (1, 1)]),
            (SVT_CLASSIC, [(1, 0)] * 7 + [(0, 1)]),
            (SVT_GAP, [(1, 0)] * 7 + [(0, 1)]),
        ],
    )
    def test_instances_past_the_old_box_budget_run(self, mechanism, pairs):
        """Boxes of 1.2e9 and 6.3e20 points, which a budget on the box size
        refused, are small work for the oracle: both sides normalise and the
        exact check passes, each in well under a second."""
        w = Workload.from_values(pairs, 0, 1, 1.0)
        start = time.perf_counter()
        report, _ = check_dp_exact(mechanism, w)
        elapsed = time.perf_counter() - start
        assert report.passed and report.truncation_loss < 1e-9
        assert report.notes["grid_points"] > 10**9
        assert elapsed < 1.0
        for side in Side:
            assert enumerate_output_dist(mechanism, w, side).normalization_defect() < 1e-12

    def test_answer_tables_start_at_the_least_code(self):
        """A query far above the threshold answers only codes near 4 * 100000.
        Its answer-mass table spans those codes alone, so the oracle takes
        it on (a table from code 0 would pass the cell cap at 4.4e7 cells),
        and its masses match the per-tape runs of the same box."""
        w = Workload.from_values([(100000, 99999)], 0, 1, 1.0)
        start = time.perf_counter()
        report, loss = check_dp_exact(SVT_GAP, w)
        elapsed = time.perf_counter() - start
        assert report.passed and elapsed < 1.0
        outputs = set()
        for side in Side:
            a = enumerate_output_dist(SVT_GAP, w, side, method="per-tape")
            b = enumerate_output_dist(SVT_GAP, w, side)
            assert set(a.masses) == set(b.masses)
            for key in a.masses:
                assert a.masses[key] == pytest.approx(b.masses[key], rel=1e-13, abs=0)
            outputs |= set(b.masses)
        assert report.checks_run == loss.outputs == len(outputs) == 332

    def test_per_tape_reference_keeps_its_box_cap(self):
        w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)
        with pytest.raises(GridBudgetExceeded) as info:
            enumerate_output_dist(SVT_GAP, w, Side.D, method="per-tape")
        assert info.value.budget == 2_000_000 < info.value.needed

    @pytest.mark.parametrize("method", ["per-query", "per-tape"])
    def test_negative_box_is_a_domain_error(self, method):
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        with pytest.raises(DomainError, match="box must be >= 0"):
            enumerate_output_dist(SVT_GAP, w, Side.D, box=-1, method=method)
        for box in (1.5, "3", True):  # a half-integer box would enumerate half-integer noise
            with pytest.raises(DomainError, match="box must be an int"):
                enumerate_output_dist(SVT_GAP, w, Side.D, box=box, method=method)
        assert enumerate_output_dist(SVT_GAP, w, Side.D, box=0, method=method).masses

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: enumerate_output_dist(ADAPTIVE_GAP, w, Side.D),
            lambda w: mc_output_dist(ADAPTIVE_GAP, w, Side.D, 100, seed=0),
            lambda w: run_mechanism(ADAPTIVE_GAP, w, NoiseTape(0, ((0, 0),), TapeLayout.PAIRED)),
        ],
        ids=["exact", "monte-carlo", "per-tape"],
    )
    def test_adaptive_needs_sigma_on_every_path(self, call):
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        with pytest.raises(GapSvtError, match="adaptive mechanism requires workload.sigma"):
            call(w)

    @pytest.mark.parametrize("mechanism", [SVT_CLASSIC, SVT_GAP])
    def test_plain_variants_ignore_a_fractional_sigma(self, mechanism):
        """svt and svt-gap never read sigma: a curated instance carrying
        sigma 2.5 has the masses it has without one.  adaptive-gap reads it
        and still needs an integer."""
        w = default_enumeration_instances(mechanism)[1]
        for side in Side:
            a = enumerate_output_dist(mechanism, w, side)
            b = enumerate_output_dist(mechanism, dataclasses.replace(w, sigma=2.5), side)
            assert list(a.masses.items()) == list(b.masses.items())
            assert a.truncation_loss == b.truncation_loss
        adaptive = dataclasses.replace(default_enumeration_instances(ADAPTIVE_GAP)[0], sigma=2.5)
        with pytest.raises(DomainError, match="integer sigma"):
            enumerate_output_dist(ADAPTIVE_GAP, adaptive, Side.D)

    def test_integer_values_required(self):
        w = Workload.from_values([(1.5, 0.5)], 0, 1, 1.0)
        with pytest.raises(DomainError):
            enumerate_output_dist(SVT_GAP, w, Side.D)

    def test_single_query_mass_accounting(self):
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        dist = enumerate_output_dist(SVT_GAP, w, Side.D)
        bot = dist.masses.get(("bot",), 0.0)
        tops = sum(m for key, m in dist.masses.items() if key != ("bot",))
        assert abs(bot + tops + dist.truncation_loss - 1.0) < 1e-9


# masses in [0, 1] with zeros, subnormals and extremes; tails 0 or positive
_MASS = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0]), st.floats(0.0, 1.0))
_TAIL = st.one_of(st.just(0.0), st.sampled_from([1e-300, 1e-12]), st.floats(0.0, 1e-2))


def _per_key_loss(p: OutputDistribution, q: OutputDistribution) -> tuple:
    """max_privacy_loss as a loop over the union keys with ``math.log`` per
    key: the reference the array computation must equal."""
    tau = max(p.truncation_loss, q.truncation_loss)
    padded_max = 0.0
    raw_max = 0.0
    certified_max = 0.0
    one_sided = []
    for key in [*p.masses, *(k for k in q.masses if k not in p.masses)]:
        pm = p.masses.get(key, 0.0)
        qm = q.masses.get(key, 0.0)
        if pm + qm <= 0.0:
            continue
        if tau > 0.0:
            padded = abs(math.log((pm + tau) / (qm + tau)))
        elif pm > 0.0 and qm > 0.0:
            padded = abs(math.log(pm / qm))
        else:
            padded = math.inf
        padded_max = max(padded_max, padded)
        if pm > 0.0 and qm > 0.0:
            raw_max = max(raw_max, abs(math.log(pm / qm)))
        if pm > 0.0:
            certified_max = max(certified_max, math.log(pm / (qm + tau)) if qm + tau > 0 else math.inf)
        if qm > 0.0:
            certified_max = max(certified_max, math.log(qm / (pm + tau)) if pm + tau > 0 else math.inf)
        if (pm == 0.0 and qm > tau) or (qm == 0.0 and pm > tau):
            one_sided.append((key, "d" if pm > 0 else "dprime", max(pm, qm)))
    return padded_max, raw_max, max(certified_max, 0.0), tau, tuple(one_sided)


class TestPrivacyLoss:
    def test_equal_distributions_have_zero_loss(self):
        d = OutputDistribution(SVT_GAP, "d", {("bot",): 0.4, (("plain", 1),): 0.6}, 0.0)
        loss = max_privacy_loss(d, d)
        assert loss.padded_max == 0.0 and loss.raw_max == 0.0 and loss.certified_max == 0.0

    def test_two_point_example(self):
        p = OutputDistribution(SVT_GAP, "d", {"a": 0.6, "b": 0.4}, 0.0)
        q = OutputDistribution(SVT_GAP, "dprime", {"a": 0.4, "b": 0.6}, 0.0)
        loss = max_privacy_loss(p, q)
        assert loss.padded_max == pytest.approx(math.log(1.5), abs=1e-12)
        assert loss.raw_max == pytest.approx(math.log(1.5), abs=1e-12)

    def test_mechanism_mismatch(self):
        p = OutputDistribution(SVT_GAP, "d", {"a": 1.0}, 0.0)
        q = OutputDistribution(ADAPTIVE_GAP, "dprime", {"a": 1.0}, 0.0)
        with pytest.raises(DomainMismatch):
            max_privacy_loss(p, q)
        with pytest.raises(DomainMismatch):
            tv_distance(p, q)
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        with pytest.raises(DomainMismatch):
            tv_distance(enumerate_output_dist(SVT_CLASSIC, w), enumerate_output_dist(SVT_GAP, w))

    def test_one_sided_outputs_are_material(self):
        p = OutputDistribution(SVT_GAP, "d", {"a": 0.9, "b": 0.1}, 1e-9)
        q = OutputDistribution(SVT_GAP, "dprime", {"a": 1.0}, 1e-9)
        loss = max_privacy_loss(p, q)
        assert loss.material_one_sided()
        assert loss.one_sided[0][0] == "b"

    def test_enumerated_instance_within_epsilon(self):
        w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)
        p = enumerate_output_dist(SVT_GAP, w, Side.D)
        q = enumerate_output_dist(SVT_GAP, w, Side.DPRIME)
        loss = max_privacy_loss(p, q)
        assert loss.certified_max <= w.epsilon + 1e-9
        assert loss.padded_max <= w.epsilon + 1e-4
        assert not loss.material_one_sided()


    @settings(max_examples=300, deadline=None)
    @given(
        p_masses=st.dictionaries(st.integers(0, 9), _MASS),
        q_masses=st.dictionaries(st.integers(0, 9), _MASS),
        disjoint=st.booleans(),
        p_tail=_TAIL,
        q_tail=_TAIL,
    )
    def test_array_loss_equals_the_per_key_loop(self, p_masses, q_masses, disjoint, p_tail, q_tail):
        """The three maxima, one_sided in its order and the output count are
        those of a loop over the union keys, bit for bit, for tau = 0 and
        tau > 0, zero masses, one-sided keys and disjoint supports; the TV
        distance is the loop's sum in the same order."""
        if disjoint:
            q_masses = {k + 10: m for k, m in q_masses.items()}
        p = OutputDistribution(SVT_GAP, "d", p_masses, p_tail)
        q = OutputDistribution(SVT_GAP, "dprime", q_masses, q_tail)
        got = max_privacy_loss(p, q)
        want = _per_key_loss(p, q)
        assert (got.padded_max, got.raw_max, got.certified_max, got.tau) == want[:4]
        assert got.one_sided == want[4]
        assert got.outputs == len(set(p_masses) | set(q_masses))
        keys = [*p_masses, *(k for k in q_masses if k not in p_masses)]
        tv = sum(abs(p_masses.get(k, 0.0) - q_masses.get(k, 0.0)) for k in keys)
        assert tv_distance(p, q) == 0.5 * (tv + abs(p_tail - q_tail))
        # the same masses as two sides of one lattice, paired by position
        p_rows, q_rows = _one_lattice(p_masses, q_masses)
        p = OutputDistribution(SVT_GAP, "d", p_rows, p_tail)
        q = OutputDistribution(SVT_GAP, "dprime", q_rows, q_tail)
        paired = max_privacy_loss(p, q)
        assert paired == max_privacy_loss(_dict_only(p), _dict_only(q))
        assert (paired.padded_max, paired.raw_max, paired.certified_max, paired.tau, paired.one_sided) == _per_key_loss(p, q)
        assert paired.outputs == len(set(p.masses) | set(q.masses))


def _one_lattice(p_masses: dict, q_masses: dict) -> list:
    """Two mass dicts as the exact oracle's sides of one lattice of one
    position: its outputs are the keys of positive mass on either side,
    ascending, key k the answer code k + 1, which decodes to k, so k's
    output key is ``(k,)``; each side has 0 at the outputs it lacks."""
    keys = sorted(k for k in {**p_masses, **q_masses} if p_masses.get(k, 0.0) > 0.0 or q_masses.get(k, 0.0) > 0.0)
    steps = [(np.array(keys, dtype=np.int64) + 1, None, np.arange(len(keys)), np.zeros(0, dtype=np.int64))]
    answers = {k + 1: k for k in keys}
    return [verifier._CodeRows(steps, np.array([m.get(k, 0.0) for k in keys]), answers) for m in (p_masses, q_masses)]


def _dict_only(dist: OutputDistribution) -> OutputDistribution:
    return OutputDistribution(dist.mechanism, dist.side, dict(dist.masses), dist.truncation_loss, dist.meta)


def _sides_together(mechanism, w) -> tuple:
    """``max_privacy_loss`` of the two sides of ``w`` enumerated in one call,
    and how many of their masses moved from enumerating each side alone,
    after asserting: each side's code rows and keys are those of
    ``enumerate_output_dist`` on the side alone, in the same order; its
    masses are the same bit for bit or within 2 ulp; the lattice holds the
    union of the sides' outputs; and pairing the sides by position gives,
    field by field, what the dict join of the same sides gives."""
    p, q = verifier._enumerate_sides(mechanism, w, tuple(Side))
    moved = 0
    for together, side in zip((p, q), Side):
        alone = enumerate_output_dist(mechanism, w, side)
        held, alone_held = together.rows.mass > 0.0, alone.rows.mass > 0.0
        assert np.array_equal(together.rows.codes[held], alone.rows.codes[alone_held])
        assert list(together.masses) == list(alone.masses)
        ulps = np.abs(together.rows.mass[held].view(np.int64) - alone.rows.mass[alone_held].view(np.int64))
        assert ulps.max(initial=0) <= 2
        moved += int(np.count_nonzero(ulps))
    assert p.rows.steps is q.rows.steps and p.meta["stats"] is q.meta["stats"]
    assert len(p.rows.mass) == len(set(p.masses) | set(q.masses))
    paired = max_privacy_loss(p, q)
    joined = max_privacy_loss(_dict_only(p), _dict_only(q))
    assert paired == joined
    assert repr(paired) == repr(joined)  # signed zeros too
    return paired, moved


# the extra TestEnumeration workloads: values far apart, and far from the threshold
_EXTRA_ENUM = [
    (SVT_GAP, Workload.from_values([(0, 1), (100000, 100001)], 0, 1, 1.0)),
    (ADAPTIVE_GAP, Workload.from_values([(0, 1), (200, 201), (1, 0)], 0, 1, 8.0, sigma=1)),
    (SVT_GAP, Workload.from_values([(100000, 99999)], 0, 1, 1.0)),
]


class TestSidesTogether:
    """``check_dp_exact`` enumerates both sides in one call, on one lattice,
    and ``max_privacy_loss`` pairs them by position: each side must be the
    one enumerated alone, and the pairing the dict join of the same sides,
    in every field, ``one_sided`` and its order included."""

    @pytest.mark.parametrize(
        "mechanism,w",
        [(m, w) for m in MECHANISMS for w in default_enumeration_instances(m)] + _EXTRA_ENUM,
    )
    def test_sides_together_are_the_sides_alone(self, mechanism, w, record_property):
        loss, moved = _sides_together(mechanism, w)
        record_property("masses_moved_by_ulp", moved)  # 189 on svt-gap #5, 0 elsewhere
        report, checked = check_dp_exact(mechanism, w)
        assert checked == loss and report.checks_run == loss.outputs

    def test_failing_variants_pair_alike(self, monkeypatch):
        """The Lyu, Su & Li variants of ``TestDpExact`` on M_4, and a
        per-query "no query noise" variant, whose query noise is too small
        to leave 0: its failures list outputs that only one side has, some
        only D and some only D'.  Its lattice holds no more rows than both
        sides' outputs, at n = 4 too, where a lattice over each position's
        alphabet alone would hold 229."""
        real_table = verifier.run_state_table

        def no_stop(mechanism, w, budget):
            step, stop, _ = real_table(mechanism, w, budget)
            return step, np.zeros_like(stop), None

        monkeypatch.setattr(verifier, "run_state_table", no_stop)
        assert _sides_together(SVT_CLASSIC, _m(4, 1, 1.0))[0].certified_max > 1.0
        monkeypatch.undo()

        def fixed_noise(mechanism, w):
            return _NoisedAs(mechanisms.default_budget(mechanism, w), mechanisms.default_budget(mechanism, dataclasses.replace(w, k=1)))

        monkeypatch.setattr(verifier, "default_budget", fixed_noise)
        for mechanism, epsilon in ((SVT_CLASSIC, 1.0), (SVT_GAP, 4.0)):
            assert _sides_together(mechanism, _m(4, 2, epsilon))[0].certified_max > epsilon
        monkeypatch.undo()

        def no_query_noise(mechanism, w):
            budget = mechanisms.default_budget(mechanism, w)
            spec = budget.noise_spec(NoiseKind.DLAP)
            quiet = {role: b if role == "threshold" else 0.01 for role, b in spec.scales.items()}
            return _NoisedAs(budget, SimpleNamespace(noise_spec=lambda kind: NoiseSpec(kind, quiet)))

        monkeypatch.setattr(verifier, "default_budget", no_query_noise)
        sides = set()
        for mechanism, w in (
            (SVT_GAP, Workload.from_values([(1, 0), (0, 1)], 0, 1, 8.0)),
            (SVT_CLASSIC, Workload.from_values([(1, 0), (0, 1)], 0, 1, 8.0)),
            (ADAPTIVE_GAP, Workload.from_values([(1, 0), (0, 1)], 0, 1, 8.0, sigma=1)),
            (SVT_GAP, _m(2, 1, 1.0)),
        ):
            loss, _ = _sides_together(mechanism, w)
            assert loss.certified_max > w.epsilon and loss.material_one_sided()
            sides.update(side for _, side, _ in loss.one_sided)
            p, q = verifier._enumerate_sides(mechanism, w, tuple(Side))
            assert len(p.rows.mass) <= len(p.masses) + len(q.masses)
        assert sides == {"d", "dprime"}
        assert len(p.rows.mass) == 59 and len(w) == 4

    @pytest.mark.parametrize("mechanism,index", [(SVT_GAP, 6), (SVT_CLASSIC, 1), (ADAPTIVE_GAP, 2)])
    def test_a_passing_check_builds_no_output_key(self, mechanism, index, monkeypatch):
        """A passing ``check_dp_exact`` decodes answer codes only, each
        distinct code once, as many as the pair's one ``answers_decoded``
        counts; reading ``masses`` afterwards builds the keys from those
        answers, decoding nothing."""
        decoded, dists = [], []
        real_decode, real_enumerate = verifier.decode_row, verifier._enumerate_sides

        def decode(mechanism, row):
            decoded.append(row)
            return real_decode(mechanism, row)

        def enumerate_(*args):
            dists.extend(real_enumerate(*args))
            return dists[-2:]

        monkeypatch.setattr(verifier, "decode_row", decode)
        monkeypatch.setattr(verifier, "_enumerate_sides", enumerate_)
        report, loss = check_dp_exact(mechanism, default_enumeration_instances(mechanism)[index])
        assert report.passed and len(dists) == 2
        stats = dists[0].meta["stats"]
        assert dists[1].meta["stats"] is stats
        assert len(decoded) == stats["answers_decoded"] > 0
        assert all(len(row) == 1 for row in decoded)
        assert len(set(row[0] for row in decoded)) == len(decoded)
        assert len(set(dists[0].masses) | set(dists[1].masses)) == loss.outputs
        assert len(decoded) == stats["answers_decoded"]


def _assert_keys_order_like_rows(codes):
    """int_row_keys groups and orders rows exactly as row-wise np.unique does;
    an int64 overflow in the packing breaks the order even without a collision."""
    _, inverse = np.unique(codes, axis=0, return_inverse=True)
    _, key_inverse = np.unique(vectorized.int_row_keys(codes), return_inverse=True)
    assert key_inverse.tolist() == inverse.ravel().tolist()


def _row_unique_oracle(mechanism, chunks) -> Counter:
    """Counts keyed the old way: row-wise np.unique over each chunk's codes."""
    counts = Counter()
    for codes in chunks:
        uniq, tallies = np.unique(codes, axis=0, return_counts=True)
        for row, c in zip(uniq, tallies.tolist()):
            counts[vectorized.decode_row(mechanism, row)] += c
    return counts


# the three criterion-5 instances, then wider ones: n = 6 at epsilon 0.3
# overflows a plain mixed radix, and an adaptive workload with 5 queries
_MC_CASES = [
    (SVT_GAP, Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)),
    (SVT_CLASSIC, Workload.from_values([(0, 1), (1, 0)], 0, 1, 1.0)),
    (ADAPTIVE_GAP, Workload.from_values([(6, 5)], 4, 1, 1.0, sigma=2)),
    (SVT_GAP, Workload.from_values([(3, 2), (0, 1), (5, 5), (1, 0), (2, 2), (4, 3)], 2, 6, 0.3)),
    (ADAPTIVE_GAP, Workload.from_values([(2, 1), (1, 1), (0, 1), (3, 3), (5, 4)], 1, 3, 2.0, sigma=1)),
]


# real-valued workloads for Monte Carlo under continuous noise
_W_REAL = Workload.from_values([(9.3, 8.6), (10.8, 11.5), (11.6, 10.9)], 10.0, 2, 1.0)
_MC_LAPLACE = {
    SVT_GAP: _W_REAL,
    SVT_CLASSIC: _W_REAL,
    ADAPTIVE_GAP: Workload.from_values([(11.2, 10.4), (12.7, 12.9)], 10.0, 1, 1.0, sigma=2.0),
}


class TestMonteCarlo:
    @pytest.mark.parametrize("case", range(len(_MC_CASES)))
    def test_counts_equal_row_unique_oracle(self, case, monkeypatch):
        mechanism, w = _MC_CASES[case]
        chunks, ranked = [], []
        encode, rank = verifier.encode_int_rows, vectorized.key_groups

        def spy_encode(*args):
            chunks.append(encode(*args))
            return chunks[-1]

        def spy_rank(a):
            ranked.append(len(a))
            return rank(a)

        monkeypatch.setattr(verifier, "encode_int_rows", spy_encode)
        monkeypatch.setattr(vectorized, "key_groups", spy_rank)
        # 7000-row chunks split 30000 samples unevenly: 4 full chunks and 2000 rows
        dist = mc_output_dist(mechanism, w, Side.D, 30_000, seed=(5, case), chunk=7_000)
        assert [len(c) for c in chunks] == [7_000] * 4 + [2_000]
        # in order too: tv_distance sums over the keys in their dict order
        assert list(dist.meta["counts"].items()) == list(_row_unique_oracle(mechanism, chunks).items())
        assert sum(dist.meta["counts"].values()) == 30_000
        if len(w) == 6:
            assert ranked, "the n=6 instance must go through the rank-compression step"
        for codes in chunks:
            _assert_keys_order_like_rows(codes)

    @pytest.mark.parametrize(
        "mechanism, w, kind",
        [
            *((m, w, NoiseKind.DLAP) for m, w in _MC_CASES[:4]),
            (SVT_GAP, Workload.from_values([(3, 2), (1, 0), (0, 1), (2, 2), (5, 4), (0, 0)], 1, 2, 0.3), NoiseKind.DLAP),
            (SVT_GAP, _W_REAL, NoiseKind.LAPLACE),
            (SVT_CLASSIC, _W_REAL, NoiseKind.LAPLACE),
            (ADAPTIVE_GAP, _MC_LAPLACE[ADAPTIVE_GAP], NoiseKind.LAPLACE),
        ],
        ids=["svt-gap", "svt", "adaptive-gap", "svt-gap rank step", "svt-gap n=6 k=2", "svt-gap laplace", "svt laplace", "adaptive-gap laplace"],
    )
    def test_sub_blocks_merge_bit_for_bit(self, mechanism, w, kind, monkeypatch):
        """A chunk runs the kernel and keying ``_DRAW_BLOCK`` rows at a time.
        At 1000 rows, each 7500-row chunk spans eight sub-blocks, the last of
        500, and the 3500-row tail four; the counts, their int values and
        their order are those of one sub-block per chunk."""
        whole = mc_output_dist(mechanism, w, Side.D, 26_000, seed=(7, 1), kind=kind, chunk=7_500).meta["counts"]
        blocks, ranked = [], []
        kernel, rank = verifier.run_status_gaps, vectorized.key_groups

        def spy_kernel(*args):
            blocks.append(len(args[4]))  # the sub-block's threshold draws
            return kernel(*args)

        def spy_rank(a):
            ranked.append(len(a))
            return rank(a)

        monkeypatch.setattr(verifier, "_DRAW_BLOCK", 1_000)
        monkeypatch.setattr(verifier, "run_status_gaps", spy_kernel)
        monkeypatch.setattr(vectorized, "key_groups", spy_rank)
        split = mc_output_dist(mechanism, w, Side.D, 26_000, seed=(7, 1), kind=kind, chunk=7_500).meta["counts"]
        assert blocks == ([1_000] * 7 + [500]) * 3 + [1_000] * 3 + [500]
        assert [(k, type(c), c) for k, c in split.items()] == [(k, int, c) for k, c in whole.items()]
        assert sum(split.values()) == 26_000
        if w is _MC_CASES[3][1]:
            assert ranked, "the k=6 instance must go through the rank-compression step"

    def test_chunk_memory_grows_with_its_draws_alone(self):
        """Only a chunk's draws, 24 B a row here, are held whole; the kernel
        and keying arrays are a sub-block's.  Keying the chunk whole grew the
        peak by about 83 B a row."""
        w = _MC_CASES[0][1]

        def peak(rows):
            tracemalloc.start()
            try:
                mc_output_dist(SVT_GAP, w, Side.D, rows, seed=1, kind=NoiseKind.DLAP, chunk=rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1 << 12)  # module-level caches filled outside the measurement
        small, large = peak(1 << 17), peak(1 << 19)
        assert large - small <= 1.25 * 24 * ((1 << 19) - (1 << 17))

    def test_int_row_keys_hand_built_rows(self):
        big = np.iinfo(np.int64).max
        codes = np.array(
            [
                [1, 0, big, 3],
                [1, 0, big, 3],
                [1, 0, -big - 1, 3],
                [2, 4 * 10**17 + 2, 0, 0],
                [2, 4 * 10**17 + 2, 0, 1],
                [1, 0, big, 2],
                [-5, 1 << 62, 7, 7],
                [2, 4 * 10**17 + 2, 0, 0],
            ],
            dtype=np.int64,
        )
        assert vectorized.int_row_keys(codes).dtype == np.int64
        _assert_keys_order_like_rows(codes)

    def test_int_row_keys_wide_random_rows(self):
        rng = np.random.default_rng(3)
        # 12 columns spanning 2^40 each cannot share one mixed radix
        codes = rng.integers(-(1 << 39), 1 << 39, size=(500, 12))
        codes[250:] = codes[:250]  # every row appears twice
        codes[::7, 5] = 0
        _assert_keys_order_like_rows(codes)

    @pytest.mark.parametrize(
        "value,limit",
        [(2**70, "2**61"), (2**62, "2**61"), (2**61, "2**61"), (2.0**54, "2**53")],
    )
    def test_codes_past_the_exact_range_are_a_domain_error(self, value, limit):
        """An answer code is ``4 * gap + status`` in int64: at 2**61 the
        codes wrapped to gaps near -2**61, at 2**62 to gaps of 0 and +-1,
        and 2**70 raised a bare OverflowError from the kernel."""
        w = Workload.from_values([(value, value)], 0, 1, 1.0)
        with pytest.raises(DomainError, match=re.escape(limit)):
            mc_output_dist(SVT_GAP, w, Side.D, 1000, seed=1)

    def test_codes_inside_the_exact_range_keep_their_gaps(self):
        w = Workload.from_values([(2**60, 2**60)], 0, 1, 1.0)
        dist = mc_output_dist(SVT_GAP, w, Side.D, 1000, seed=1)
        assert all(len(key) == 1 and key[0][0] == "plain" for key in dist.masses)
        assert all(abs(key[0][1] - 2**60) <= 100 for key in dist.masses)

    @pytest.mark.parametrize("kind", [NoiseKind.DLAP, NoiseKind.LAPLACE])
    def test_subnormal_epsilon_is_a_domain_error_naming_the_role(self, kind):
        """At epsilon 1e-320 the threshold role's scale 1/epsilon is past the
        largest float."""
        w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 1e-320)
        with pytest.raises(DomainError, match="noise role 'threshold' has epsilon 5e-321"):
            mc_output_dist(SVT_GAP, w, Side.D, 100, seed=1, kind=kind)

    @pytest.mark.parametrize("sub_block", [None, 400], ids=["one sub-block a chunk", "400-row sub-blocks"])
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_laplace_counts_equal_per_tape_runs(self, mechanism, sub_block, monkeypatch):
        """Real-valued keys, their types, counts and order match per-tape runs
        of the same draws, rebuilt chunk by chunk as mc_output_dist draws them.
        With 400-row sub-blocks, each 1100-row chunk is keyed and counted in
        three parts, and the counts still hold the per-tape first-occurrence
        order across them."""
        if sub_block is not None:
            monkeypatch.setattr(verifier, "_DRAW_BLOCK", sub_block)
        w = _MC_LAPLACE[mechanism]
        samples, chunk, seed = 3000, 1100, (6, 1)
        dist = mc_output_dist(mechanism, w, Side.D, samples, seed, kind=NoiseKind.LAPLACE, chunk=chunk)
        budget = default_budget(mechanism, w)
        spec = budget.noise_spec(NoiseKind.LAPLACE)
        rng = np.random.default_rng(seed)
        keys = []
        for rows in (chunk, chunk, samples - 2 * chunk):
            eta0 = verifier._draw_block(rng, NoiseKind.LAPLACE, spec.scales["threshold"], rows).tolist()
            if mechanism == ADAPTIVE_GAP:
                xis, etas = (
                    verifier._draw_block(rng, NoiseKind.LAPLACE, spec.scales[r], (rows, len(w))).tolist()
                    for r in ("query_first", "query_second")
                )
                tapes = [NoiseTape(e, tuple(zip(x, y)), TapeLayout.PAIRED) for e, x, y in zip(eta0, xis, etas)]
            else:
                etaq = verifier._draw_block(rng, NoiseKind.LAPLACE, spec.scales["query"], (rows, len(w))).tolist()
                tapes = [NoiseTape(e, tuple(q)) for e, q in zip(eta0, etaq)]
            for tape in tapes:
                result = run_mechanism(mechanism, w, tape, Side.D, budget)
                keys.append(canonical(result.output, verifier.GAP_NDIGITS))
        assert [repr(kc) for kc in dist.meta["counts"].items()] == [repr(kc) for kc in Counter(keys).items()]
        assert dist.meta["noise"] == "laplace"

    def test_laplace_counts_keep_the_mechanisms_invariants(self):
        w = _MC_LAPLACE[SVT_GAP]
        gap = mc_output_dist(SVT_GAP, w, Side.D, 4000, seed=9, kind=NoiseKind.LAPLACE, chunk=1500).meta["counts"]
        classic = mc_output_dist(SVT_CLASSIC, w, Side.D, 4000, seed=9, kind=NoiseKind.LAPLACE, chunk=1500)
        erased = Counter()
        for key, c in gap.items():
            erased[tuple("bot" if a == "bot" else "top" for a in key)] += c
        assert erased == classic.meta["counts"]
        assert all(a[1] >= 0 for key in gap for a in key if a != "bot")
        assert len(gap) > 1000  # real gaps, almost every sample its own key
        w = _MC_LAPLACE[ADAPTIVE_GAP]
        adaptive = mc_output_dist(ADAPTIVE_GAP, w, Side.D, 4000, seed=9, kind=NoiseKind.LAPLACE, chunk=1500)
        first = [a[1] for key in adaptive.meta["counts"] for a in key if a != "bot" and a[0] == "first"]
        assert first and min(first) >= round(w.sigma, verifier.GAP_NDIGITS)

    @pytest.mark.parametrize("kind", [NoiseKind.DLAP, NoiseKind.LAPLACE])
    @pytest.mark.parametrize("arg, value", [("chunk", 0), ("chunk", -5), ("samples", 0), ("samples", -1)])
    def test_sample_and_chunk_counts_below_one_are_rejected(self, kind, arg, value):
        w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)
        kwargs = {"samples": 1000, "chunk": 100, arg: value}
        with pytest.raises(DomainError, match=arg):
            mc_output_dist(SVT_GAP, w, Side.D, kwargs["samples"], seed=1, kind=kind, chunk=kwargs["chunk"])

    @pytest.mark.parametrize(
        "factor, error",
        [
            (math.nan, DomainError),
            (math.inf, DomainError),
            (10**400, DomainError),
            (1e308, DomainError),  # finite, but 2 * 1e308 is not
            (0.0, NonPositiveBudget),
            (-2.0, NonPositiveBudget),
        ],
    )
    def test_unusable_scale_epsilon_factor_is_rejected(self, factor, error):
        w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 2.0)
        with pytest.raises(error):
            mc_output_dist(SVT_GAP, w, Side.D, 1000, seed=1, scale_epsilon_factor=factor)

    def test_mc_deterministic(self):
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        a = mc_output_dist(SVT_GAP, w, Side.D, 10**4, seed=8)
        b = mc_output_dist(SVT_GAP, w, Side.D, 10**4, seed=8)
        assert a.masses == b.masses

    def test_mc_close_to_enumeration(self):
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        enum = enumerate_output_dist(SVT_GAP, w, Side.D)
        mc = mc_output_dist(SVT_GAP, w, Side.D, 10**5, seed=4)
        assert tv_distance(enum, mc) < 0.05

    def test_identical_sides_not_flagged(self):
        w = Workload.from_values([(2, 2), (1, 1)], 1, 1, 1.0)
        report = mc_privacy_estimate(SVT_GAP, w, 10**4, seed=12)
        assert report.passed

    def test_sample_floor(self):
        w = Workload.from_values([(1, 0)], 0, 1, 1.0)
        with pytest.raises(DomainError):
            mc_privacy_estimate(SVT_GAP, w, 5000, seed=1)

    def test_valid_instance_not_flagged(self):
        w = Workload.from_values([(5, 6), (5, 6), (8, 7)], 4, 1, 1.0)
        report = mc_privacy_estimate(SVT_GAP, w, 10**5, seed=21)
        assert report.passed
        assert "heuristic" in report.notes["method"]

    @pytest.mark.parametrize("real", [False, True], ids=["integer", "real"])
    @pytest.mark.parametrize("kind", [NoiseKind.DLAP, NoiseKind.LAPLACE])
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_masses_are_the_counts_over_the_samples(self, mechanism, kind, real):
        """Monte Carlo builds ``masses`` on its first read, from the counts,
        in their order and with the same floats."""
        w = _MC_LAPLACE[mechanism] if real else dict(_MC_CASES[:3])[mechanism]
        dist = mc_output_dist(mechanism, w, Side.D, 3000, seed=(4, 2), kind=kind, chunk=1100)
        assert dist.rows is None
        assert list(dist.masses.items()) == [(k, c / 3000) for k, c in dist.meta["counts"].items()]
        assert dist.masses is dist.masses

    @pytest.mark.parametrize(
        "kind, factor, samples, checks, max_log_ratio, first_flagged",
        [
            (NoiseKind.LAPLACE, 1.0, 10**4, 18515, 0.06732016409944783, None),
            (NoiseKind.LAPLACE, 2.0, 10**4, 19510, 0.06927412588340541, None),
            (NoiseKind.DLAP, 2.0, 3 * 10**5, 76, 1.9694406464655074, [["bot", "bot", ["plain", 4]], 3962, 952]),
        ],
        ids=["laplace", "laplace 2x drill", "dlap 2x drill"],
    )
    def test_estimate_reports_are_pinned(self, kind, factor, samples, checks, max_log_ratio, first_flagged):
        """Literal reports on the ``demos/04`` workload, from the counts and
        from the masses built from them."""
        w = Workload.from_values([(5, 6), (5, 6), (8, 7)], 4, 1, 1.0)
        report = mc_privacy_estimate(SVT_GAP, w, samples, seed=21, kind=kind, scale_epsilon_factor=factor)
        assert (report.checks_run, report.max_log_ratio) == (checks, max_log_ratio)
        assert (report.notes["flagged"] or [None])[0] == first_flagged
        assert report.verdict == ("pass" if first_flagged is None else "fail")

    @pytest.mark.slow
    def test_doubled_noise_scales_are_flagged(self):
        w = Workload.from_values([(5, 6), (5, 6), (8, 7)], 4, 1, 1.0)
        clean = mc_privacy_estimate(SVT_GAP, w, 10**6, seed=21)
        assert clean.passed
        report = mc_privacy_estimate(SVT_GAP, w, 10**6, seed=21, scale_epsilon_factor=2.0)
        assert report.verdict == "fail"
        assert report.notes["flagged"]
        assert all(type(cp) is int and type(cq) is int for _, cp, cq in report.notes["flagged"])
        assert report.witness is not None


class _NoisedAs:
    """A budget that draws another budget's noise, all else its own."""

    def __init__(self, budget, noisy):
        self.budget, self.noisy = budget, noisy

    def __getattr__(self, name):
        return getattr(self.budget, name)

    def noise_spec(self, kind=NoiseKind.LAPLACE):
        return self.noisy.noise_spec(kind)


def _m(m: int, k: int, epsilon: float) -> Workload:
    """M_m: m queries that rise from D to D' and m that fall, threshold 0."""
    return Workload.from_values([(0, 1)] * m + [(1, 0)] * m, 0, k, epsilon)


class TestDpExact:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_first_instances_pass(self, mechanism):
        for w in default_enumeration_instances(mechanism)[:2]:
            report, loss = check_dp_exact(mechanism, w)
            assert report.passed, report.to_json_dict()
            assert report.max_log_ratio <= w.epsilon + 1e-4
            assert report.truncation_loss < 1e-9

    def test_report_fields(self):
        w = default_enumeration_instances(SVT_GAP)[0]
        report, loss = check_dp_exact(SVT_GAP, w)
        d = report.to_json_dict()
        for field in ("verdict", "suite", "trials", "max_cost", "max_log_ratio", "truncation_loss"):
            assert field in d
        json.dumps(d)

    def test_dp_exact_witness_replays(self, monkeypatch):
        # noise and guard scaled for four times the epsilon the check compares against
        def under_noised(mechanism, w):
            return mechanisms.default_budget(mechanism, dataclasses.replace(w, epsilon=4 * w.epsilon))

        w = default_enumeration_instances(ADAPTIVE_GAP)[0]
        monkeypatch.setattr(verifier, "default_budget", under_noised)
        report, _ = check_dp_exact(ADAPTIVE_GAP, w)
        assert report.verdict == "fail" and report.witness.kind == "dp-exact"
        assert replay_witness(report.witness)
        monkeypatch.undo()
        assert not replay_witness(report.witness)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_2x_drill_fails_a_curated_instance(self, mechanism, monkeypatch):
        """Noise scaled for 2 epsilon, while the guard, the stop rule and the
        cost stay at epsilon, must fail at least one curated instance, and
        its witness must replay under the same drill."""

        def drill(mechanism, w):
            doubled = dataclasses.replace(w, epsilon=2 * w.epsilon)
            return _NoisedAs(mechanisms.default_budget(mechanism, w), mechanisms.default_budget(mechanism, doubled))

        monkeypatch.setattr(verifier, "default_budget", drill)
        reports = [check_dp_exact(mechanism, w)[0] for w in default_enumeration_instances(mechanism)]
        failed = [r for r in reports if not r.passed]
        assert failed and failed[0].witness.kind == "dp-exact"
        assert replay_witness(failed[0].witness)

    @pytest.mark.parametrize("mechanism", [SVT_GAP, SVT_CLASSIC])
    def test_no_query_noise_variant_fails(self, mechanism, monkeypatch):
        """Lyu, Su & Li's (PVLDB 2017) broken variant that adds no noise to
        the queries, gap = q - (T + e), fails dp-exact through the per-tape
        oracle, while the real mechanism passes on the same workload."""
        w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 8.0)
        per_query = verifier._enumerate_sides
        monkeypatch.setattr(verifier, "_enumerate_sides", lambda m, w, sides: per_query(m, w, sides, method="per-tape"))
        real, _ = check_dp_exact(mechanism, w)
        assert real.passed, real.to_json_dict()

        def no_query_noise(mechanism, w, tape, side, budget):
            return run_mechanism(mechanism, w, NoiseTape(tape.threshold_noise, (0,) * len(w)), side, budget)

        monkeypatch.setattr(verifier, "run_mechanism", no_query_noise)
        broken, loss = check_dp_exact(mechanism, w)
        assert broken.verdict == "fail" and broken.witness.kind == "dp-exact"
        assert loss.certified_max > w.epsilon and loss.material_one_sided()

    @staticmethod
    def _variant_fails(mechanism, w, monkeypatch, name, variant, ratios):
        """The real mechanism passes on ``w``; with ``variant`` patched in
        for ``verifier.<name>`` it fails, and its witness replays under the
        patch alone.  ``ratios`` are certified_max / epsilon of the real
        mechanism and of the variant."""
        real, real_loss = check_dp_exact(mechanism, w)
        assert real.passed, real.to_json_dict()
        monkeypatch.setattr(verifier, name, variant)
        broken, loss = check_dp_exact(mechanism, w)
        assert broken.verdict == "fail" and broken.witness.kind == "dp-exact"
        assert (real_loss.certified_max / w.epsilon, loss.certified_max / w.epsilon) == pytest.approx(ratios, abs=5e-4)
        assert replay_witness(broken.witness)
        monkeypatch.undo()
        assert not replay_witness(broken.witness)

    def test_no_stop_variant_fails(self, monkeypatch):
        """Lyu, Su & Li's variant that answers every query, never stopping
        after k positives, fails dp-exact on svt over M_4 at k = 1."""
        real = verifier.run_state_table

        def no_stop(mechanism, w, budget):
            step, stop, _ = real(mechanism, w, budget)
            return step, np.zeros_like(stop), None

        self._variant_fails(SVT_CLASSIC, _m(4, 1, 1.0), monkeypatch, "run_state_table", no_stop, (0.863, 1.662))

    @pytest.mark.parametrize("mechanism,epsilon,ratios", [(SVT_CLASSIC, 1.0, (0.644, 1.196)), (SVT_GAP, 4.0, (0.733, 1.401))])
    def test_noise_fixed_at_k_1_variant_fails(self, mechanism, epsilon, ratios, monkeypatch):
        """Lyu, Su & Li's variant whose query noise does not grow with k,
        here the k = 1 budget's noise at k = 2 with the k = 2 stop rule,
        fails dp-exact over M_4."""

        def fixed_noise(mechanism, w):
            return _NoisedAs(mechanisms.default_budget(mechanism, w), mechanisms.default_budget(mechanism, dataclasses.replace(w, k=1)))

        self._variant_fails(mechanism, _m(4, 2, epsilon), monkeypatch, "default_budget", fixed_noise, ratios)


_HASH_SEED_PROBE = """
from gapsvt import SVT_GAP, Side, Workload, enumerate_output_dist, max_privacy_loss
from gapsvt import mc_output_dist, mc_privacy_estimate, tv_distance
w = Workload.from_values([(1, 0)], 0, 1, 1.0)
enum = enumerate_output_dist(SVT_GAP, w, Side.D)
mc = mc_output_dist(SVT_GAP, w, Side.D, 20_000, seed=1)
print(repr(tv_distance(enum, mc)))
print(repr(max_privacy_loss(enum, mc)))  # dozens of one-sided outputs
print(repr(mc_privacy_estimate(SVT_GAP, w, 10**4, seed=2, scale_epsilon_factor=16.0).to_json_dict()))
"""


def test_figures_do_not_depend_on_the_hash_seed():
    """Output keys are tuples of strings, hashed differently in every
    interpreter; the sums and lists over them must not depend on that."""
    src = os.path.dirname(os.path.dirname(gapsvt.__file__))
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


_W_INT = Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)


@pytest.mark.parametrize(
    "named, call",
    [
        pytest.param("samples", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 1e4, seed=1), id="samples=1e4"),
        pytest.param("samples", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, True, seed=1), id="samples=True"),
        pytest.param("chunk", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=1, chunk=50.0), id="chunk=50.0"),
        pytest.param("chunk", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=1, chunk=True), id="chunk=True"),
        pytest.param("samples", lambda: mc_privacy_estimate(SVT_GAP, _W_INT, 1e4, seed=1), id="estimate samples=1e4"),
        pytest.param("samples", lambda: mc_privacy_estimate(SVT_GAP, _W_INT, True, seed=1), id="estimate samples=True"),
        pytest.param("trials", lambda: TrialPlan(SVT_GAP, trials=2.5, master_seed=0), id="trials=2.5"),
        pytest.param("trials", lambda: TrialPlan(SVT_GAP, trials=True, master_seed=0), id="trials=True"),
        pytest.param("master_seed", lambda: TrialPlan(SVT_GAP, trials=2, master_seed=-1), id="master_seed=-1"),
        pytest.param("master_seed", lambda: TrialPlan(SVT_GAP, trials=2, master_seed=1.5), id="master_seed=1.5"),
        pytest.param("master_seed", lambda: TrialPlan(SVT_GAP, trials=2, master_seed=True), id="master_seed=True"),
        pytest.param("seed", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=-1), id="mc seed=-1"),
        pytest.param("seed", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=(1, -2)), id="mc seed=(1, -2)"),
        pytest.param("seed", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=1.5), id="mc seed=1.5"),
        pytest.param("seed", lambda: mc_privacy_estimate(SVT_GAP, _W_INT, 10**4, seed=-1), id="estimate seed=-1"),
        pytest.param("seed", lambda: gapsvt.sample_run(SVT_GAP, _W_INT, Side.D, -3), id="sample_run seed=-3"),
        # numpy takes a bool as the int 0 or 1
        pytest.param("seed", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=True), id="mc seed=True"),
        pytest.param("seed", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=(3, False)), id="mc seed=(3, False)"),
        pytest.param("seed", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=[True]), id="mc seed=[True]"),
        pytest.param("seed", lambda: mc_privacy_estimate(SVT_GAP, _W_INT, 10**4, seed=True), id="estimate seed=True"),
        pytest.param("seed", lambda: gapsvt.sample_run(SVT_GAP, _W_INT, Side.D, True), id="sample_run seed=True"),
    ],
)
def test_malformed_counts_and_seeds_are_domain_errors(named, call):
    with pytest.raises(DomainError, match=re.escape(named)):
        call()


@pytest.mark.parametrize(
    "named, call",
    [
        pytest.param("kind", lambda: mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=1, kind="dlap"), id="mc kind='dlap'"),
        pytest.param("kind", lambda: mc_privacy_estimate(SVT_GAP, _W_INT, 10**4, seed=1, kind="dlap"), id="estimate kind='dlap'"),
        pytest.param("side", lambda: mc_output_dist(SVT_GAP, _W_INT, "d", 100, seed=1), id="mc side='d'"),
        pytest.param("side", lambda: enumerate_output_dist(SVT_GAP, _W_INT, "d"), id="enumerate side='d'"),
        pytest.param("mutation", lambda: TrialPlan(SVT_GAP, 2000, 1, mutation="threshold-shift"), id="mutation='threshold-shift'"),
    ],
)
def test_enum_values_given_as_strings_are_domain_errors_before_any_draw(named, call, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew noise before refusing the argument")

    monkeypatch.setattr(verifier, "_draw_block", no_draw)
    monkeypatch.setattr(verifier, "draw_tape", no_draw)
    with pytest.raises(DomainError, match=re.escape(named)):
        call()


def test_numpy_integer_counts_and_tuple_seeds_are_taken():
    dist = mc_output_dist(SVT_GAP, _W_INT, Side.D, np.int64(100), seed=(1, 2), chunk=np.int32(30))
    assert dist.meta["counts"] == mc_output_dist(SVT_GAP, _W_INT, Side.D, 100, seed=(1, 2), chunk=30).meta["counts"]
    assert sum(dist.meta["counts"].values()) == 100
    plan = TrialPlan(SVT_GAP, trials=np.int64(3), master_seed=np.uint64(5))
    assert run_trial_suites(plan)["align"].trials == 3
    assert gapsvt.sample_run(SVT_GAP, _W_INT, Side.D, (4, 5)) == gapsvt.sample_run(SVT_GAP, _W_INT, Side.D, (4, 5))


_NO_NUMPY_MA_PROBE = """
import sys
import gapsvt
from gapsvt import (
    ADAPTIVE_GAP, SVT_GAP, NoiseKind, Side, TrialPlan, Workload,
    check_dp_exact, default_enumeration_instances, enumerate_output_dist, mc_output_dist, run_trial_suites,
)
w = Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)
enumerate_output_dist(SVT_GAP, w, Side.D).masses
check_dp_exact(ADAPTIVE_GAP, default_enumeration_instances(ADAPTIVE_GAP)[0])
mc_output_dist(SVT_GAP, w, Side.D, 5000, seed=1, kind=NoiseKind.DLAP)
mc_output_dist(SVT_GAP, w, Side.D, 5000, seed=1, kind=NoiseKind.LAPLACE)
run_trial_suites(TrialPlan(SVT_GAP, trials=50, master_seed=3))
print("numpy.ma" in sys.modules)
"""


def test_no_path_imports_numpy_ma():
    """``numpy.ma`` costs about 15 ms to import, and ``np.unique`` imports it
    on its first call; none of the library's paths may."""
    src = os.path.dirname(os.path.dirname(gapsvt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA_PROBE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
