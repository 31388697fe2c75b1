"""The gapsvt benchmark: four workloads, their checks and the measurement loop.

Each workload is a fixed *cycle* of blocks built from the seed.  A block is
one call into a public entry point of ``gapsvt``:

* ``trials``: ``run_trial_suites`` over ten trials of one mechanism;
* ``enum``: ``check_dp_exact`` on one instance (both sides and the loss);
* ``mc-dlap`` / ``mc-laplace``: ``mc_output_dist`` over one chunk.

A run times its set-up in fresh interpreters, runs one warm-up cycle so that
caches fill, then whole timed cycles until ``--seconds`` have passed (at
least three), then the workload's untimed checks.  Every cycle repeats the
same inputs, so every count must repeat exactly.

The end-to-end throughput ``work_per_ref`` is measured against a fixed
calibration routine, ``reference``, that runs between groups of blocks in
every cycle.  On the shared two-core reference machine load outside the
process slows all code by up to 1.7x for minutes at a time, so raw
throughput moved by up to 21% between sets of runs taken minutes apart,
while ``work_per_ref`` moved by at most 9%.  ``work_per_ref`` is the work of
a cycle over its median cost in reference runs, over the untraced cycles:
per cycle, the sum over its groups of each group's time over the mean of
the two reference runs around it.  ``setup_s`` is scaled the same way, see
``time_setup``.  The raw figures are printed beside them: ``setup_wall_s``;
throughput as work over the sum of each block's fastest time, named
``trials_per_s``, ``grid_points_per_s`` or ``samples_per_s``; and the median
and tail of the blocks' fastest times as ``block_ms_p50`` and
``block_ms_tail``.

With tracing on, odd cycles run with the hooks of ``tracer.gapsvt_hooks``
installed and even ones without, so one run gives both the per-layer split
and the tracing overhead.  Every per-layer metric is measured on every
workload; ``meta.json`` predicts which of them are 0 where, and the run
prints whether that prediction holds.
"""

from __future__ import annotations

import fnmatch
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gapsvt import (
    ADAPTIVE_GAP,
    SVT_CLASSIC,
    SVT_GAP,
    Mutation,
    NoiseKind,
    OutputDistribution,
    Side,
    TrialPlan,
    Workload,
    default_enumeration_instances,
    replay_witness,
    tv_distance,
    verifier,
)
from tracer import Tracer, gapsvt_hooks

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_CYCLES = 3
SETUP_REPS = 5


@dataclass
class Outcome:
    ok: bool
    work: int  # trials, grid points or samples the block completed
    counts: dict = field(default_factory=dict)
    detail: str = ""


@dataclass
class Block:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Workloads


class TrialsWorkload:
    """The randomized trial suites of acceptance criteria 2, 3 and 6."""

    name = "trials"
    work_unit = "trials"
    GROUP = 23  # blocks between reference runs: one round of the mix
    # acceptance fixture ratio svt-gap : adaptive-gap : svt = 10 : 10 : 3
    MIX = ((SVT_GAP, 10), (ADAPTIVE_GAP, 10), (SVT_CLASSIC, 3))
    ROUNDS = 4
    BLOCK_TRIALS = 10
    DRILLS = (
        (SVT_GAP, Mutation.THRESHOLD_SHIFT),
        (SVT_GAP, Mutation.QUERY_SHIFT),
        (ADAPTIVE_GAP, Mutation.DROP_SECOND_BRANCH),
    )

    @classmethod
    def prepare(cls, seed):
        return {}

    def __init__(self, seed, prepared):
        self.seed = seed
        self.plans = []
        for r in range(self.ROUNDS):
            for mechanism, blocks in self.MIX:
                for _ in range(blocks):
                    master = seed * 10**6 + len(self.plans)
                    self.plans.append(TrialPlan(mechanism, trials=self.BLOCK_TRIALS, master_seed=master))

    def blocks(self):
        return [
            Block(f"{plan.mechanism}#{i}", lambda plan=plan: verifier.run_trial_suites(plan), self._check)
            for i, plan in enumerate(self.plans)
        ]

    @staticmethod
    def _check(reports):
        failing = [s for s, r in reports.items() if not r.passed]
        counts = {f"verifier.checks_run.{s}": r.checks_run for s, r in reports.items()}
        trials = next(iter(reports.values())).trials
        return Outcome(not failing, trials, counts, f"failing suites {failing}" if failing else "")

    def untimed_checks(self):
        """Each injected alignment corruption is caught, and its witness
        replays from its serialized inputs alone."""
        out = []
        for i, (mechanism, mutation) in enumerate(self.DRILLS):
            plan = TrialPlan(mechanism, trials=10**4, master_seed=self.seed * 10**6 + 900_000 + i, mutation=mutation)
            rep = verifier.check_alignment_soundness(plan)
            found = rep.verdict == "fail" and rep.witness is not None and replay_witness(rep.witness)
            out.append((found, f"mutation drill {mechanism}/{mutation.value} detected and replayed"))
        return out


class EnumWorkload:
    """The exact oracle of acceptance criterion 4 on a fixed subset of the
    curated instances: large grids with few outputs and a small grid with
    many outputs, all three mechanisms."""

    name = "enum"
    work_unit = "grid points"
    GROUP = 1
    # (mechanism, index into default_enumeration_instances)
    SUBSET = (
        (SVT_CLASSIC, 1),  # n=2, 5.4 M points, 3 outputs
        (SVT_GAP, 6),  # k=2, 2.8 M points, ~19.7 k outputs
        (ADAPTIVE_GAP, 2),  # n=1, 1.4 M points, ~225 outputs
    )
    MAX_TRUNCATION = 1e-9

    @classmethod
    def prepare(cls, seed):
        return {}

    def __init__(self, seed, prepared):
        order = np.random.default_rng(seed).permutation(len(self.SUBSET))
        self.cases = []
        for i in order.tolist():
            mechanism, index = self.SUBSET[i]
            self.cases.append((mechanism, index, default_enumeration_instances(mechanism)[index]))

    def blocks(self):
        return [
            Block(f"{m}#{idx}", lambda m=m, w=w: verifier.check_dp_exact(m, w), self._check)
            for m, idx, w in self.cases
        ]

    def _check(self, result):
        report, _ = result
        points = 2 * report.notes["grid_points"]  # both sides share the grid
        ok = report.passed and report.truncation_loss < self.MAX_TRUNCATION
        counts = {"verifier.enum_grid_points": points, "verifier.enum_outputs": report.checks_run}
        return Outcome(ok, points, counts, f"verdict {report.verdict}, truncation {report.truncation_loss}")

    def untimed_checks(self):
        return []


def _as_key(x):
    return tuple(_as_key(v) for v in x) if isinstance(x, list) else x


def _as_list(key):
    return [_as_list(v) for v in key] if isinstance(key, tuple) else key


def tv_bound(ref: OutputDistribution, samples: int, failure_prob: float = 1e-9) -> float:
    """A TV distance between ``ref`` and an empirical distribution of
    ``samples`` draws from it that is exceeded with probability below
    ``failure_prob``.

    E|p_hat - p| <= sqrt(p (1 - p) / S) per output bounds the mean, plus the
    truncated mass the empirical side may put outside ``ref`` and the tail
    bucket ``tv_distance`` adds.  One sample moves the TV by at most 1/S, so
    McDiarmid's inequality adds sqrt(ln(1/failure_prob) / (2 S)).
    """
    mean = 0.5 * sum(math.sqrt(p * (1.0 - p) / samples) for p in ref.masses.values())
    mean += ref.truncation_loss
    return mean + math.sqrt(math.log(1.0 / failure_prob) / (2.0 * samples))


PRODUCTION_CHUNK = 1 << 20  # mc_output_dist's default chunk, used by criterion 5


class McDlapWorkload:
    """Monte Carlo with integer noise on the instances of acceptance
    criterion 5, checked against their exact distributions."""

    name = "mc-dlap"
    work_unit = "samples"
    GROUP = 3  # one noise stream of the three instances
    CHUNK = 1 << 15
    STREAMS = 4  # chunks per instance and cycle, each from its own noise stream
    CASES = (
        (SVT_GAP, Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0)),
        (SVT_CLASSIC, Workload.from_values([(0, 1), (1, 0)], 0, 1, 1.0)),
        (ADAPTIVE_GAP, Workload.from_values([(6, 5)], 4, 1, 1.0, sigma=2)),
    )

    @classmethod
    def prepare(cls, seed):
        refs = []
        for mechanism, w in cls.CASES:
            dist = verifier.enumerate_output_dist(mechanism, w, Side.D)
            refs.append({"masses": [[_as_list(k), m] for k, m in dist.masses.items()], "truncation_loss": dist.truncation_loss})
        return {"refs": refs}

    def __init__(self, seed, prepared):
        self.seed = seed
        self.refs = []
        for (mechanism, _), ref in zip(self.CASES, prepared["refs"]):
            masses = {_as_key(k): m for k, m in ref["masses"]}
            self.refs.append(OutputDistribution(mechanism, Side.D.value, masses, ref["truncation_loss"]))

    def blocks(self):
        out = []
        for stream in range(self.STREAMS):
            for i, ((mechanism, w), ref) in enumerate(zip(self.CASES, self.refs)):
                call = lambda m=mechanism, w=w, key=(self.seed, i, stream): verifier.mc_output_dist(
                    m, w, Side.D, self.CHUNK, seed=key, kind=NoiseKind.DLAP, chunk=self.CHUNK
                )
                out.append(Block(f"{mechanism}#{stream}", call, lambda dist, ref=ref: self._check(dist, ref)))
        return out

    def _check(self, dist, ref, samples=CHUNK):
        tv = tv_distance(ref, dist)
        bound = tv_bound(ref, samples)
        counts = {"verifier.mc_outputs": len(dist.masses)}
        return Outcome(tv <= bound, samples, counts, f"TV {tv:.3e} vs bound {bound:.3e}")

    def untimed_checks(self):
        """One call per instance at the production chunk of criterion 5, so
        that ``peak_rss_mb`` sees the kernel and keying arrays of a full
        chunk; its TV distance is checked like a block's."""
        out = []
        for i, ((mechanism, w), ref) in enumerate(zip(self.CASES, self.refs)):
            dist = verifier.mc_output_dist(
                mechanism, w, Side.D, PRODUCTION_CHUNK, seed=(self.seed, i, self.STREAMS), kind=NoiseKind.DLAP
            )
            outcome = self._check(dist, ref, PRODUCTION_CHUNK)
            out.append((outcome.ok, f"{mechanism} at {PRODUCTION_CHUNK} samples: {outcome.detail}"))
        return out


class McLaplaceWorkload:
    """Monte Carlo with continuous noise on real-valued workloads, keyed
    through the per-row canonical encoding.  The workloads are fixed so that
    runs compare; the seed picks the noise streams."""

    name = "mc-laplace"
    work_unit = "samples"
    GROUP = 3  # one noise stream: svt-gap, svt and adaptive-gap
    CHUNK = 1 << 13
    STREAMS = 4  # chunks per mechanism and cycle, each from its own noise stream
    SIGMA = 2.0
    W_SVT = Workload.from_values([(9.3, 8.6), (10.8, 11.5), (11.6, 10.9)], 10.0, 2, 1.0)
    W_ADAPTIVE = Workload.from_values([(11.2, 10.4), (12.7, 12.9)], 10.0, 1, 1.0, sigma=SIGMA)

    @classmethod
    def prepare(cls, seed):
        return {}

    def __init__(self, seed, prepared):
        self.seed = seed
        self._gap_counts = None

    def _block(self, mechanism, w, key, check):
        call = lambda: verifier.mc_output_dist(
            mechanism, w, Side.D, self.CHUNK, seed=(self.seed, *key), kind=NoiseKind.LAPLACE, chunk=self.CHUNK
        )
        return Block(f"{mechanism}#{key[-1]}", call, check)

    def blocks(self):
        out = []
        for s in range(self.STREAMS):
            # svt runs on the svt-gap block's noise stream, right after it
            out.append(self._block(SVT_GAP, self.W_SVT, (0, s), self._check_gap))
            out.append(self._block(SVT_CLASSIC, self.W_SVT, (0, s), self._check_classic))
            out.append(self._block(ADAPTIVE_GAP, self.W_ADAPTIVE, (1, s), self._check_adaptive))
        return out

    def _outcome(self, dist, ok, detail):
        return Outcome(ok, self.CHUNK, {"verifier.mc_outputs": len(dist.masses)}, detail)

    def _check_gap(self, dist):
        self._gap_counts = dist.meta["counts"]
        ok = all(a[1] >= 0 for key in self._gap_counts for a in key if a != "bot")
        return self._outcome(dist, ok, "svt-gap released a negative gap")

    def _check_classic(self, dist):
        """The gap counts with gaps erased equal the classic counts on the
        same seed, exactly."""
        erased = Counter()
        for key, c in self._gap_counts.items():
            erased[tuple(a if a == "bot" else "top" for a in key)] += c
        return self._outcome(dist, erased == Counter(dist.meta["counts"]), "erased svt-gap counts differ from svt")

    def _check_adaptive(self, dist):
        sigma = round(self.SIGMA, 9)  # keys carry gaps rounded to 9 digits
        ok = all(a[1] >= sigma for key in dist.meta["counts"] for a in key if a != "bot" and a[0] == "first")
        return self._outcome(dist, ok, "first-branch gap below sigma")

    # One untimed chunk of this size, so that ``peak_rss_mb`` sees the kernel
    # arrays and the per-row keys of a large chunk.  Not the production
    # 2^20: nearly every real-valued sample is an output of its own, so the
    # counts grow with the samples: 2^20 of them take about 600 MB and 9 s on
    # the two-core reference machine.
    PROBE_SAMPLES = 1 << 18

    def untimed_checks(self):
        dist = verifier.mc_output_dist(
            SVT_GAP, self.W_SVT, Side.D, self.PROBE_SAMPLES, seed=(self.seed, 0, self.STREAMS),
            kind=NoiseKind.LAPLACE, chunk=self.PROBE_SAMPLES,
        )
        ok = all(a[1] >= 0 for key in dist.meta["counts"] for a in key if a != "bot")
        return [(ok, f"svt-gap at {self.PROBE_SAMPLES} samples released no negative gap")]


WORKLOADS = {cls.name: cls for cls in (TrialsWorkload, EnumWorkload, McDlapWorkload, McLaplaceWorkload)}


# ---------------------------------------------------------------------------
# Measurement


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


_REF_RNG = np.random.default_rng(0)
_REF_LARGE = _REF_RNG.random(1 << 19)  # 4 MiB, beyond the 4 MiB L2 with its temporaries
_REF_SMALL = _REF_RNG.random(1 << 12)
_REF_INTS = _REF_RNG.integers(0, 4096, 1 << 14)


class _RefPoint:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference() -> None:
    """The calibration routine ``work_per_ref`` is measured in: about 12 ms
    on the reference machine of the kinds of work the program does, each a
    few ms: an interpreted loop with dict stores, object and tuple creation,
    numpy arithmetic on small (cache-resident) and large arrays, and a
    sort-based ``np.unique``.  It is fixed and calls nothing of gapsvt."""
    table, acc = {}, 0
    for i in range(20000):
        acc += i * i
        table[i & 255] = acc
    rows = []
    for i in range(3000):
        p = _RefPoint(i, (i, i + 1))
        rows.append((p.a, p.b[1], str(i)[:1]))
    sorted(rows[:1000])
    x = _REF_SMALL
    for _ in range(60):
        ((x * 1.5 + 2.0) * x).sum()
        np.exp(x)
    x = _REF_LARGE
    float(((x * 1.5 + 2.0) * x).sum() + np.exp(x[: 1 << 17]).sum())
    np.unique(_REF_INTS)


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


# Nominal seconds of one reference run: ``setup_s`` is set-up time at the
# host speed where a reference run takes this long (8-14 ms on the
# reference machine, depending on load outside the process).
REF_S = 0.010


@dataclass
class CycleRecord:
    times: list  # seconds per block
    works: list
    counts: Counter
    wall: float
    summary: object = None  # tracer.SpanSummary of a traced cycle
    ref_times: list = None  # seconds per reference run
    cost_in_refs: float = None  # sum over groups of their time over the mean of the reference runs around them


def run_cycle(blocks, checks: Checks, tracer: Tracer | None = None, group: int = 0) -> CycleRecord:
    """One pass over the blocks.  With ``group``, ``reference`` runs before
    the first block and after every ``group`` blocks (and the last), traced
    or not, so that traced and untraced cycles compare; its runs are outside
    ``wall`` and outside every span."""
    times, works, counts, refs = [], [], Counter(), []
    span = tracer.span if tracer is not None else lambda name, layer: nullcontext()
    calibrate = group > 0
    gc.collect()  # every cycle starts from the same collector state
    with tracer.installed() if tracer is not None else nullcontext():
        wall = 0.0
        for i, block in enumerate(blocks):
            if calibrate and i % group == 0:
                refs.append(timed_reference())
            t0 = time.perf_counter()
            result = block.call()
            times.append(time.perf_counter() - t0)
            with span("bench.check", "bench"):
                outcome = block.check(result)
            wall += time.perf_counter() - t0
            checks.record(outcome.ok, f"{block.label}: {outcome.detail}")
            works.append(outcome.work)
            counts.update(outcome.counts)
        cost = None
        if calibrate:
            refs.append(timed_reference())
            cost = sum(
                sum(times[g * group : (g + 1) * group]) / ((refs[g] + refs[g + 1]) / 2) for g in range(len(refs) - 1)
            )
    return CycleRecord(times, works, counts, wall, tracer.drain() if tracer is not None else None, refs, cost)


def time_setup(name: str, seed: int, root: str, reps: int):
    """Wall time of import plus set-up, each in a fresh interpreter, and the
    same at nominal host speed: scaled by ``REF_S`` over the mean of the
    reference runs just before and after it.  Set-up time follows the host's
    speed as the blocks do; raw, its set medians moved by up to 29%."""
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), name, str(seed)]
    times, scaled, prepared = [], [], None
    reference()  # untimed: the first run pays for cold caches
    ref = timed_reference()
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        prepared = json.loads(proc.stdout.strip().splitlines()[-1])
        ref_after = timed_reference()
        scaled.append(times[-1] * REF_S / ((ref + ref_after) / 2))
        ref = ref_after
    return times, scaled, prepared


def best_times(records) -> list:
    """Each block's fastest time over the cycles (see the module doc)."""
    return [min(times) for times in zip(*(r.times for r in records))]


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when that percentile would not lie above the
    median (fewer than 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class Result:
    end_to_end: dict  # name -> (value, unit)
    per_layer: dict  # name -> (value, unit); empty unless traced
    counts: dict
    attempted: int
    failures: list
    info: list  # human-readable lines


def run(name, seed, seconds, trace, root, setup_reps=SETUP_REPS, cycles=None) -> Result:
    if seed < 0:
        raise ValueError("seed must be >= 0")
    cls = WORKLOADS[name]
    setup_times, setup_scaled, prepared = time_setup(name, seed, root, setup_reps)
    workload = cls(seed, prepared)
    blocks = workload.blocks()
    checks = Checks()
    warm = run_cycle(blocks, checks)
    # keep set-up and warm-up objects out of the collector's scans, so a
    # block pays only for collecting what it allocates itself
    gc.collect()
    gc.freeze()
    tracer = Tracer(gapsvt_hooks()) if trace else None
    # traced runs alternate untraced and traced cycles, at least two of each
    n_min = cycles if cycles is not None else 2 * MIN_CYCLES if trace else MIN_CYCLES
    records = []
    start = time.perf_counter()
    while len(records) < n_min or (cycles is None and time.perf_counter() - start < seconds):
        records.append(run_cycle(blocks, checks, tracer if trace and len(records) % 2 else None, cls.GROUP))
    n = len(records)
    for i, rec in enumerate(records):
        checks.record(rec.counts == warm.counts, f"cycle {i} counts differ from the warm-up cycle's")
    for ok, what in workload.untimed_checks():
        checks.record(ok, what)

    plain = [r for r in records if r.summary is None]
    traced = [r for r in records if r.summary is not None]
    best = best_times(plain)
    tail_s, tail_pct = tail(best)
    work_per_s = sum(warm.works) / sum(best)
    cost_in_refs = statistics.median(r.cost_in_refs for r in plain)
    ref_ms = statistics.median(t for r in plain for t in r.ref_times) * 1e3
    end_to_end = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "work_per_ref": (sum(warm.works) / cost_in_refs, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    counts = dict(warm.counts)
    counts["bench.cycle_work"] = sum(warm.works)
    per_layer = {}
    if traced:
        first = traced[0].summary
        for other in traced[1:]:
            same = other.summary.calls == first.calls and other.summary.counts == first.counts
            checks.record(same, "traced cycles differ in call counts")
        counts.update(first.counts)
        counts["core.draw_tape_calls"] = first.calls["core.draw_tape"]
        counts["mechanisms.run_calls"] = first.calls["mechanisms.run"]
        traced_per_s = sum(warm.works) / sum(best_times(traced))
        per_layer = layer_metrics(traced, counts, traced_per_s / work_per_s)

    failed = len(checks.failures)
    info = [
        f"workload {name}: seed {seed}, {len(blocks)} blocks per cycle of {counts['bench.cycle_work']} "
        f"{cls.work_unit}, 1 warm-up + {n} timed cycles ({len(traced)} traced), set-up x{len(setup_times)}",
        f"setup_wall_s = {statistics.median(setup_times)!r} s (raw, see setup_s)",
        f"{THROUGHPUT_ALIAS[name]} = {work_per_s!r} 1/s (raw, see work_per_ref)",
        f"reference_ms = {ref_ms!r} ms, median of {sum(len(r.ref_times) for r in plain)} reference runs",
        f"block_ms_p50 = {statistics.median(best) * 1e3!r} ms, block_ms_tail = {tail_s * 1e3!r} ms "
        f"(p{tail_pct:.4g}) over {len(best)} blocks, each the best of {len(plain)} cycles",
        f"failed_frac = {failed / checks.attempted!r} ({failed} of {checks.attempted} checks)",
    ]
    if name == "trials":
        for mechanism, _ in TrialsWorkload.MIX:
            idx = [b for b, blk in enumerate(blocks) if blk.label.startswith(mechanism + "#")]
            trials = len(idx) * TrialsWorkload.BLOCK_TRIALS
            best_s = sum(best[b] for b in idx)
            median_s = sum(statistics.median(r.times[b] for r in plain) for b in idx)
            info.append(f"trial_us.{mechanism} = {best_s * 1e6 / trials!r} us best, {median_s * 1e6 / trials!r} us median")
    if per_layer:
        violations = no_work_violations(name, per_layer)
        info.append(f"no-work prediction of meta.json: {'nonzero ' + ', '.join(violations) if violations else 'holds'}")
    info += [f"count {k} = {v}" for k, v in sorted(counts.items())]
    info += [f"check failed: {what}" for what in checks.failures[:20]]
    return Result(end_to_end, per_layer, counts, checks.attempted, checks.failures, info)


THROUGHPUT_ALIAS = {
    "trials": "trials_per_s",
    "enum": "grid_points_per_s",
    "mc-dlap": "samples_per_s",
    "mc-laplace": "samples_per_s",
}

END_TO_END = ("setup_s", "work_per_ref", "peak_rss_mb")


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run


def _us_per_unit(ns, n):
    """Microseconds per unit of work: per trial, grid point or sample."""
    return ns / 1e3 / n["bench.cycle_work"]


def _ratio(a, b):
    return a / b if b else 0.0


def _per_layer_table():
    """(name, unit, value of one traced cycle).  Every metric is computed
    from the spans and counts of every workload; a layer that does no such
    work reports 0 because no span or count of it was recorded.  The value
    is a function of the cycle's ``SpanSummary`` ``s``, its counts ``n``
    (hook counts, block counts and ``bench.cycle_work``) and its wall time."""

    def incl_us(name):
        return lambda s, n, wall: _us_per_unit(s.inclusive_ns[name], n)

    def incl_s(name):
        return lambda s, n, wall: s.inclusive_ns[name] / 1e9

    def self_s(*names):
        return lambda s, n, wall: sum(s.self_ns[x] for x in names) / 1e9

    def self_us(*names):
        return lambda s, n, wall: _us_per_unit(sum(s.self_ns[x] for x in names), n)

    def layer_s(layer):
        return lambda s, n, wall: s.layer_self_ns[layer] / 1e9

    def count(name):
        return lambda s, n, wall: n[name]

    def countability_hit_ratio(s, n, wall):
        """Structural trials whose second tape gave the same index sets (so
        the shift was rebuilt and compared), over structural trials."""
        attempts = s.pair_calls[("verifier.structural_trial", "core.draw_tape")]
        shifts = s.pair_calls[("verifier.structural_trial", "alignments.shift")]
        return _ratio(shifts - attempts, attempts)

    return [
        ("core.draw_tape_us", "us/unit", incl_us("core.draw_tape")),
        ("core.draw_tape_calls", "count/cycle", lambda s, n, wall: s.calls["core.draw_tape"]),
        ("core.check_workload_calls", "count/cycle", count("core.check_workload_calls")),
        ("mechanisms.run_us", "us/unit", incl_us("mechanisms.run")),
        ("mechanisms.run_calls", "count/unit", lambda s, n, wall: s.calls["mechanisms.run"] / n["bench.cycle_work"]),
        ("alignments.align_us", "us/unit", incl_us("alignments.align")),
        ("alignments.cost_us", "us/unit", incl_us("alignments.cost")),
        ("alignments.closed_form_us", "us/unit", incl_us("alignments.closed_form")),
        ("alignments.shift_us", "us/unit", incl_us("alignments.shift")),
        ("alignments.index_sets_us", "us/unit", incl_us("alignments.index_sets")),
        ("verifier.trial_rng_us", "us/unit", incl_us("verifier.trial_rng")),
        ("verifier.generate_us", "us/unit", incl_us("verifier.generate_workload")),
        ("verifier.trial_self_us", "us/unit", self_us("verifier.run_trial_suites", "verifier.structural_trial")),
        ("verifier.checks_run.align", "count/cycle", count("verifier.checks_run.align")),
        ("verifier.checks_run.cost", "count/cycle", count("verifier.checks_run.cost")),
        ("verifier.checks_run.structural", "count/cycle", count("verifier.checks_run.structural")),
        ("verifier.countability_hit_ratio", "ratio", countability_hit_ratio),
        ("vectorized.kernel_s", "s/cycle", incl_s("vectorized.kernel")),
        ("vectorized.kernel_calls", "count/cycle", count("vectorized.kernel_calls")),
        ("vectorized.kernel_rows", "count/cycle", count("vectorized.kernel_rows")),
        ("vectorized.kernel_max_rows", "rows", count("vectorized.kernel_max_rows")),
        ("vectorized.kernel_bytes_computed", "B/cycle", count("vectorized.kernel_bytes_computed")),
        ("vectorized.encode_s", "s/cycle", incl_s("vectorized.encode")),
        ("vectorized.decode_calls", "count/cycle", count("vectorized.decode_calls")),
        ("vectorized.canonical_rows_s", "s/cycle", incl_s("vectorized.canonical_rows")),
        ("verifier.enum_self_s", "s/cycle", self_s("verifier.enumerate_output_dist")),
        ("verifier.enum_grid_points", "count/cycle", count("verifier.enum_grid_points")),
        ("verifier.enum_outputs", "count/cycle", count("verifier.enum_outputs")),
        (
            "verifier.enum_points_per_output",
            "ratio",
            lambda s, n, wall: _ratio(n["verifier.enum_grid_points"], n["verifier.enum_outputs"]),
        ),
        ("verifier.loss_s", "s/cycle", incl_s("verifier.max_privacy_loss")),
        ("verifier.mc_draw_s", "s/cycle", incl_s("verifier.draw_block")),
        ("verifier.mc_self_s", "s/cycle", self_s("verifier.mc_output_dist")),
        ("verifier.mc_outputs", "count/cycle", count("verifier.mc_outputs")),
        ("core.self_s", "s/cycle", layer_s("core")),
        ("mechanisms.self_s", "s/cycle", layer_s("mechanisms")),
        ("alignments.self_s", "s/cycle", layer_s("alignments")),
        ("vectorized.self_s", "s/cycle", layer_s("vectorized")),
        ("verifier.self_s", "s/cycle", layer_s("verifier")),
        ("bench.self_s", "s/cycle", layer_s("bench")),
        ("bench.cycle_work", "count/cycle", count("bench.cycle_work")),
        ("trace.wall_s", "s/cycle", lambda s, n, wall: wall),
        ("trace.accounted_frac", "ratio", lambda s, n, wall: sum(s.layer_self_ns.values()) / 1e9 / wall),
    ]


PER_LAYER = _per_layer_table()
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER) + ("trace.overhead_frac",)
TIME_UNITS = ("us/unit", "s/cycle")


def layer_metrics(traced: list, counts: dict, traced_share: float) -> dict:
    out = {}
    for metric, unit, fn in PER_LAYER:
        values = [fn(r.summary, Counter({**counts, **r.summary.counts}), r.wall) for r in traced]
        # times: the fastest traced cycle, as for the blocks; counts repeat
        out[metric] = (min(values) if unit in TIME_UNITS else statistics.median_low(values), unit)
    out["trace.overhead_frac"] = (1.0 - traced_share, "ratio")
    return out


def no_work_prediction(name: str) -> list:
    """The per-layer metric patterns ``meta.json`` predicts to be 0 on a
    workload: layers that do no such work there."""
    with open(os.path.join(HERE, "meta.json")) as fh:
        return json.load(fh)["workloads"][name]["no_work"]


def no_work_violations(name: str, per_layer: dict) -> list:
    """Per-layer metrics that the no-work prediction covers but that
    measured nonzero."""
    patterns = no_work_prediction(name)
    return [m for m, (v, _) in per_layer.items() if v != 0 and any(fnmatch.fnmatchcase(m, p) for p in patterns)]
