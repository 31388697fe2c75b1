"""Executable privacy checks.

Three families of evidence, in increasing strength on small instances:

* randomized trials over generated workloads and tapes, asserting that the
  alignment reproduces outputs on the adjacent side, that its weighted cost
  stays within the budget, and that the structural side conditions hold;
* an exact output-distribution oracle under integer (discrete Laplace)
  noise over a box of tapes, built output by output from each query's
  distribution given the threshold draw, gathered from the noise law over
  the margins on which the array kernel gives each answer, both sides on
  one lattice of answer-code rows, that checks the likelihood-ratio bound
  directly on the two sides' masses, paired by their lattice positions;
* a Monte Carlo estimator used both to cross-check the enumeration and as a
  falsification heuristic on instances too large to enumerate.

Failures are reported as witnesses, never exceptions: a fail report
carries the workload, the tape and both outputs, and ``replay_witness``
re-triggers soundness, cost and dp-exact violations from those alone.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alignments import (
    Mutation,
    align_adaptive,
    align_svt_gap,
    alignment_cost,
    cost_closed_form,
    index_sets,
    shift_for_output,
)
from .core import _draw as _draw_block  # the one noise sampler; the benchmark tracer hooks this name
from .core import (
    _DRAW_BLOCK,
    BOT_KEY,
    TOP_KEY,
    Branch,
    NoiseKind,
    NoiseSpec,
    NoiseTape,
    Side,
    TapeLayout,
    Workload,
    _finite,
    _integer,
    canonical,
    check_workload,
    discrete_laplace_box,
    discrete_laplace_pmf,
    discrete_laplace_tail,
    draw_tape,
    seeded_rng,
)
from .errors import DomainError, DomainMismatch, GridBudgetExceeded
from .mechanisms import (
    ADAPTIVE_GAP,
    MECHANISMS,
    SVT_CLASSIC,
    SVT_GAP,
    AdaptiveBudget,
    check_workload_for,
    default_budget,
    run_mechanism,
    svt_classic_run,
    svt_gap_run,
)
from .vectorized import (
    STATUS_ABSENT,
    canonical_rows,
    decode_row,
    encode_int_rows,
    int_row_keys,
    key_groups,
    run_state_table,
    run_status_gaps,
)

GAP_TOL = 1e-9  # per-gap equality tolerance for real-valued workloads
COST_TOL = 1e-12
GAP_NDIGITS = 9  # Monte Carlo rounds real-valued gaps to this many digits before keying
PADDED_SLACK = 1e-4  # dp-exact tolerance on the tau-padded log ratio above epsilon
PER_DRAW_TAIL = 1e-12  # enumeration box: largest mass any one tape coordinate leaves outside it
ENUM_CELL_CAP = 1 << 24  # exact oracle: most cells (rows x threshold draws) one step may take on
KEY_CELLS = 64  # exact oracle: cells one output key weighs (about 500 B a side, as much as 64 float64 masses)
WILSON_Z = 6.0  # Monte Carlo falsifier: z of the Wilson intervals around each output's frequency
# PCG64 draws between the starts of consecutive trials' streams: PCG64.jumped's
# step, about (phi - 1) * 2**128.  A power of two would leave the low half of
# the 128-bit state equal in every trial, and the trials' first draws correlated.
TRIAL_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# The trial generator's fixed traffic, so that a seed and a trial index name
# one workload: n and k from the inclusive ranges GEN_N and GEN_K, values in
# [0, GEN_VALUE_HI] and sigma in [0, GEN_SIGMA_HI), their integers in the
# integer modes; a trial whose mode uniform is below GEN_BOUNDARY is a
# boundary trial, one below GEN_REAL a real-valued one, the rest integer ones.
GEN_N = (1, 6)
GEN_K = (1, 3)
GEN_EPSILONS = (0.5, 1.0, 2.0)
GEN_VALUE_HI = 20
GEN_SIGMA_HI = 4
GEN_BOUNDARY = 0.25
GEN_REAL = 0.625  # 0.25 + 0.75 / 2: half of the non-boundary trials

# module aliases: a member lookup on an Enum class costs several times a global's
_SINGLE = TapeLayout.SINGLE
_FIRST_KEY = Branch.FIRST.value
_DLAP, _LAPLACE = NoiseKind.DLAP, NoiseKind.LAPLACE


# ---------------------------------------------------------------------------
# Trial plans and workload generation


@dataclass(frozen=True)
class TrialPlan:
    mechanism: str
    trials: int
    master_seed: int
    mutation: Mutation | None = None

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise DomainError(f"unknown mechanism {self.mechanism!r}")
        _check_int("trials", self.trials)
        _check_int("master_seed", self.master_seed, least=0)
        if self.mutation is not None and not isinstance(self.mutation, Mutation):
            raise DomainError(f"field 'mutation' must be a Mutation or None, got {self.mutation!r}")


def _check_int(name: str, value, least: int = 1) -> None:
    """A count or a master seed: an integer, numpy's included but not a
    bool, of at least ``least``."""
    if not _integer(value) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Trial ``trial_index``'s stream: PCG64 seeded with ``master_seed`` and
    advanced by ``trial_index * TRIAL_JUMP`` draws, the stream of
    ``PCG64(master_seed).jumped(trial_index)``."""
    bits = np.random.PCG64(master_seed)
    bits.advance(trial_index * TRIAL_JUMP)
    return np.random.Generator(bits)


def _trial_streams(master_seed: int, trials: int):
    """``trial_rng(master_seed, i)`` for each trial index i in turn, as one
    generator reset to the plan's start and advanced to each trial."""
    rng = trial_rng(master_seed, 0)
    bits = rng.bit_generator
    start = bits.state
    for idx in range(trials):
        if idx:
            bits.state = start
            bits.advance(idx * TRIAL_JUMP)
        yield idx, rng


def _pick(u: float, lo: int, count: int) -> int:
    # one of the count integers from lo on; u * count < count for every
    # u < 1 that rng.random gives, so the pick never reaches lo + count
    return lo + int(u * count)


def generate_workload(plan: TrialPlan, rng: np.random.Generator) -> tuple[Workload, NoiseKind]:
    """One workload and its noise kind from one block of 18 uniforms,
    whatever the mode and length: ``u[0:6]`` pick n, k, epsilon, the mode,
    the threshold and sigma, and ``u[6 + 2j]`` and ``u[7 + 2j]`` the value
    on D and the delta of pair j.

    A quarter of the workloads are boundary cases: integer values
    straddling the threshold with deltas pinned to +-1, where the cost and
    alignment inequalities are tight.  Half of the rest use real-valued
    queries and continuous noise; the remainder are integer-valued with
    integer noise so outputs can be compared exactly."""
    u = rng.random(6 + 2 * GEN_N[1]).tolist()
    n = _pick(u[0], GEN_N[0], GEN_N[1] - GEN_N[0] + 1)
    k = _pick(u[1], GEN_K[0], GEN_K[1] - GEN_K[0] + 1)
    epsilon = GEN_EPSILONS[_pick(u[2], 0, len(GEN_EPSILONS))]
    mode = u[3]
    real = GEN_BOUNDARY <= mode < GEN_REAL
    values = u[6 : 6 + 2 * n : 2]
    deltas = u[7 : 7 + 2 * n : 2]
    if real:
        threshold = GEN_VALUE_HI * u[4]
        d = [GEN_VALUE_HI * a for a in values]
        dprime = [vd - (2.0 * b - 1.0) for vd, b in zip(d, deltas)]
        kind = _LAPLACE
    else:
        threshold = _pick(u[4], 0, GEN_VALUE_HI + 1)
        if mode < GEN_BOUNDARY:
            d = [_pick(a, threshold - 1, 3) for a in values]  # straddle the threshold
            dprime = [vd - (1 if b < 0.5 else -1) for vd, b in zip(d, deltas)]
        else:
            d = [_pick(a, 0, GEN_VALUE_HI + 1) for a in values]
            dprime = [vd - _pick(b, -1, 3) for vd, b in zip(d, deltas)]
        kind = _DLAP
    sigma = None
    if plan.mechanism == ADAPTIVE_GAP:
        sigma = GEN_SIGMA_HI * u[5] if real else _pick(u[5], 0, GEN_SIGMA_HI)
    w = Workload(tuple(d), tuple(dprime), threshold, k, epsilon, sigma)
    return check_workload(w), kind


# ---------------------------------------------------------------------------
# Reports and witnesses


@dataclass(frozen=True, kw_only=True)
class Witness:
    """Everything needed to re-trigger a failed check, self-contained."""

    kind: str  # soundness | cost | structural | dp-exact | dp-mc
    trial_index: int = 0
    mechanism: str
    noise: str
    orientation: str = "forward"  # forward | reverse
    workload: dict
    tape: dict | None = None
    expected: tuple | None = None
    got: tuple | None = None
    detail: str
    mutation: str | None = None


@dataclass
class PrivacyReport:
    verdict: str  # pass | fail
    suite: str
    mechanism: str
    trials: int
    checks_run: int = 0
    max_cost: float | None = None
    max_log_ratio: float | None = None
    truncation_loss: float | None = None
    witness: Witness | None = None
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        """The report and its witness as nested dicts, fields in order."""
        return asdict(self)


def outputs_equal(a: tuple, b: tuple, exact: bool) -> bool:
    if exact:
        return a == b
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if type(x) is tuple and type(y) is tuple:
            if x[0] != y[0] or abs(x[1] - y[1]) > GAP_TOL:
                return False
        elif x != y:
            return False
    return True


def _align_for(mechanism: str):
    return align_adaptive if mechanism == ADAPTIVE_GAP else align_svt_gap


# ---------------------------------------------------------------------------
# Check predicates, shared by the trial loop and witness replay


def _soundness_failure(mechanism: str, w: Workload, omega, aligned: NoiseTape, budget, exact: bool):
    """The run on side D' with the aligned tape must reproduce ``omega``
    (exactly on integer workloads, per gap to GAP_TOL otherwise).  Returns
    that run's output when it does not, else None."""
    again = run_mechanism(mechanism, w, aligned, Side.DPRIME, budget).output
    return None if outputs_equal(omega, again, exact) else again


def _cost_failure(mechanism: str, w: Workload, tape, aligned, result, budget, exact: bool):
    """``(cost, failure)`` for the alignment of the run ``result`` on
    (w, tape, D): its generic weighted L1 cost, which must stay within
    epsilon and equal the closed form (exactly on integer workloads), and
    the first broken predicate, the adaptive ledger's included, or None."""
    omega = result.output
    sets = index_sets(omega)
    cost = alignment_cost(tape, aligned, budget)
    closed = cost_closed_form(sets, w.deltas(), budget)
    if cost > w.epsilon + COST_TOL:
        return cost, f"alignment cost {cost} exceeds epsilon {w.epsilon}"
    if exact and closed != cost:
        return cost, f"closed-form cost {closed} != generic cost {cost} on an integer workload"
    if not exact and abs(closed - cost) > COST_TOL:
        return cost, f"closed-form cost {closed} deviates from generic cost {cost}"
    if mechanism == ADAPTIVE_GAP:
        return cost, _verify_ledger(budget, omega, result.ledger, sets)
    return cost, None


# ---------------------------------------------------------------------------
# Randomized suites

TRIAL_SUITES = ("align", "cost", "structural")


def run_trial_suites(plan: TrialPlan, suites=TRIAL_SUITES) -> dict:
    """Drive any subset of the randomized suites over one shared trial
    stream, so a combined run pays for workload/tape generation once.

    Returns a dict suite name -> PrivacyReport.  Trial i reads the stream
    ``trial_rng(plan.master_seed, i)``: its workload, then its tape.  The
    same trial indices produce the same workloads and tapes regardless of
    which suites are requested, so single-suite runs see exactly the trials
    a combined run does."""
    unknown = [s for s in suites if s not in TRIAL_SUITES]
    if unknown:
        raise DomainError(f"unknown trial suite {unknown[0]!r}")
    reports = {s: PrivacyReport("pass", s, plan.mechanism, plan.trials) for s in suites}
    if "cost" in reports:
        reports["cost"].max_cost = 0.0
    if "structural" in reports:
        reports["structural"].notes["not_checked"] = (
            "distributional regularity of the noise density is assumed, not executable here"
        )
    align = _align_for(plan.mechanism)
    for idx, rng in _trial_streams(plan.master_seed, plan.trials):
        active = [s for s in suites if reports[s].verdict == "pass"]
        if not active:
            break
        w, kind = generate_workload(plan, rng)
        budget = default_budget(plan.mechanism, w)
        spec = budget.noise_spec(kind)
        tape = draw_tape(spec, len(w), rng)
        exact = kind is _DLAP
        forward = run_mechanism(plan.mechanism, w, tape, Side.D, budget)  # the run on (w, tape, D)
        if "align" in active or "cost" in active:
            for orientation, ww in (("forward", w), ("reverse", w.swapped())):
                result = forward if ww is w else run_mechanism(plan.mechanism, ww, tape, Side.D, budget)
                omega = result.output
                aligned = align(tape, omega, ww, plan.mutation)
                if "align" in active:
                    report = reports["align"]
                    report.checks_run += 1
                    again = _soundness_failure(plan.mechanism, ww, omega, aligned, budget, exact)
                    if again is not None:
                        detail = "re-run on the adjacent side with the aligned tape changed the output"
                        _record_failure(report, plan, "soundness", idx, orientation, ww, kind, tape, detail, again, omega)
                if "cost" in active:
                    report = reports["cost"]
                    cost, failure = _cost_failure(plan.mechanism, ww, tape, aligned, result, budget, exact)
                    report.max_cost = max(report.max_cost, cost)
                    report.checks_run += 1
                    if failure is not None:
                        _record_failure(report, plan, "cost", idx, orientation, ww, kind, tape, failure, omega)
        if "structural" in active:
            report = reports["structural"]
            checks, failure = _structural_trial(plan.mechanism, rng, w, budget, spec, tape, forward)
            report.checks_run += checks
            if failure is not None:
                _record_failure(report, plan, "structural", idx, "forward", w, kind, tape, failure, forward.output)
    return reports


def _record_failure(report, plan, check, idx, orientation, w, noise, tape, detail, got, expected=None):
    """Fail ``report``; the first failure's trial becomes its witness, with
    the outputs ``got`` and ``expected`` in canonical form."""
    report.verdict = "fail"
    if report.witness is None:
        report.witness = Witness(
            kind=check,
            trial_index=idx,
            mechanism=plan.mechanism,
            noise=noise.value,
            orientation=orientation,
            workload=w.to_json_dict(),
            tape=tape.to_json_dict(),
            expected=None if expected is None else canonical(expected),
            got=canonical(got),
            detail=detail,
            mutation=plan.mutation.value if plan.mutation else None,
        )


def check_alignment_soundness(plan: TrialPlan) -> PrivacyReport:
    """For sampled (workload, tape): the run on one side, rewritten through
    the alignment, must reproduce the identical output on the other side.
    Exact equality on integer workloads, per-gap tolerance on real ones.
    Both directions are exercised."""
    return run_trial_suites(plan, ("align",))["align"]


def _verify_ledger(budget: AdaptiveBudget, omega: tuple, ledger, sets) -> str | None:
    """Exact re-derivation of the adaptive ledger from the output and its
    index sets ``sets``.

    Costs are counted in integer multiples of 1/d, d the common denominator
    of the budget pieces, and every ledger entry, each recorded running cost
    included, is compared with them exactly: one pass over the answers, no
    rational arithmetic.  Returns None when consistent, else a description
    of the first defect.
    """
    if ledger.initial != budget.epsilon0:
        return f"ledger starts at {ledger.initial}, expected epsilon0 {budget.epsilon0}"
    d, eps0, eps1, eps2, eps = budget.piece_units

    def same(f, units: int) -> bool:  # f == units / d, exactly
        return f.numerator * d == units * f.denominator

    limit = eps - 2 * eps2
    events = ledger.events
    running = eps0
    step = 0
    for i, a in enumerate(omega):
        if running > limit:
            return f"query {i} was processed with running cost {Fraction(running, d)} above the guard limit"
        if a == BOT_KEY:
            continue
        expected_inc = 2 * (eps1 if a[0] == _FIRST_KEY else eps2)
        if step >= len(events):
            return f"missing ledger event for positive answer at query {i}"
        ev = events[step]
        if ev.index != i or not same(ev.increment, expected_inc):
            return f"ledger event {step} is ({ev.index}, {ev.increment}), expected ({i}, {Fraction(expected_inc, d)})"
        running += expected_inc
        step += 1
        if not same(ledger.cost_at(step), running):
            return f"ledger prefix cost after {step} events diverges"
    if step != len(events):
        return "ledger has more events than positive answers"
    if not same(ledger.running_cost, running):
        return "final ledger cost does not match the per-event sum"
    if not same(ledger.running_cost, eps0 + 2 * eps1 * len(sets.top_first) + 2 * eps2 * len(sets.top_second)):
        return "final ledger cost does not match the index-set formula"
    if running > eps:
        return f"final cost {ledger.running_cost} exceeds epsilon {budget.epsilon}"
    return None


def _structural_trial(mechanism, rng, w, budget, spec, tape, forward):
    """The structural side conditions of ``forward``, the run on (w, tape,
    D), with the countability witness on a second tape drawn from ``rng``:
    ``(checks, failure)``, the number of checks made and the first broken
    condition, or None."""
    layout = tape.layout
    omega = forward.output
    checks = 1
    failure = None
    expected_draws = 1 + len(layout.query_roles) * len(omega)
    if len(omega) > len(w):
        failure = f"output length {len(omega)} exceeds query count {len(w)}"
    elif forward.consumed != expected_draws:
        failure = f"consumed {forward.consumed} draws, expected {expected_draws}"
    elif any(type(a) is tuple and a[1] < 0 for a in omega):
        failure = "negative gap released"
    elif mechanism == ADAPTIVE_GAP and any(type(a) is tuple and a[0] == _FIRST_KEY and a[1] < w.sigma for a in omega):
        failure = "first-branch gap below sigma"
    elif mechanism != ADAPTIVE_GAP and len(omega) - omega.count(BOT_KEY) > w.k:
        failure = f"{len(omega) - omega.count(BOT_KEY)} positive answers with k={w.k}"
    if failure is None:
        # countability witness: same index sets on a fresh tape => same shift
        shift = shift_for_output(omega, w.deltas(), layout)
        tape2 = draw_tape(spec, len(w), rng)
        omega2 = run_mechanism(mechanism, w, tape2, Side.D, budget).output
        checks += 1
        if index_sets(omega2) == index_sets(omega):
            shift2 = shift_for_output(omega2, w.deltas(), layout)
            if shift2.flat() != shift.flat():
                failure = "equal index sets produced different shift vectors"
    if failure is None and layout is _SINGLE:
        # the trial's own mechanism has already run on this tape as omega
        gap_out = omega if mechanism == SVT_GAP else svt_gap_run(w, tape, Side.D)
        classic_out = omega if mechanism == SVT_CLASSIC else svt_classic_run(w, tape, Side.D)
        checks += 1
        if tuple([a if a == BOT_KEY else TOP_KEY for a in gap_out]) != classic_out:
            failure = "gap run with gaps erased differs from the classic run"
    return checks, failure


def replay_witness(witness: Witness) -> bool:
    """Re-run a recorded failure from its serialized inputs alone, through
    the predicates that recorded it; True when the violation reproduces.

    ``soundness`` and ``cost`` witnesses replay their tape; ``dp-exact``
    re-runs ``check_dp_exact`` on the workload, within the oracle's fixed
    ``ENUM_CELL_CAP`` as when it was recorded.  ``structural`` and
    ``dp-mc`` raise DomainError: the first needs the trial's second tape,
    the second the seed and sample count, and a witness carries neither.
    The workload and tape are read by ``Workload.from_json_dict`` and
    ``NoiseTape.from_json_dict``, the tape at the mechanism's layout, so a
    malformed witness raises DomainError too."""
    if witness.mechanism not in MECHANISMS:
        raise DomainError(f"unknown mechanism {witness.mechanism!r}")
    w = Workload.from_json_dict(witness.workload)
    if witness.kind == "dp-exact":
        return not check_dp_exact(witness.mechanism, w)[0].passed
    if witness.kind not in ("soundness", "cost"):
        raise DomainError(f"cannot replay witness kind {witness.kind!r}")
    try:
        kind = NoiseKind(witness.noise)
        mutation = Mutation(witness.mutation) if witness.mutation else None
    except ValueError as e:
        raise DomainError(f"witness field: {e}") from None
    exact = kind is _DLAP
    budget = default_budget(witness.mechanism, w)
    tape = NoiseTape.from_json_dict(witness.tape, budget.layout, len(w))
    result = run_mechanism(witness.mechanism, w, tape, Side.D, budget)
    aligned = _align_for(witness.mechanism)(tape, result.output, w, mutation)
    if witness.kind == "soundness":
        return _soundness_failure(witness.mechanism, w, result.output, aligned, budget, exact) is not None
    return _cost_failure(witness.mechanism, w, tape, aligned, result, budget, exact)[1] is not None


# ---------------------------------------------------------------------------
# Exact enumeration oracle


class _CodeRows:
    """One side of a call of ``_enumerate_per_query``.  The sides of a call
    share ``steps``, which finish the lattice's outputs in order, and
    ``answers``, each code's decoded answer; ``mass`` holds this side's mass
    at each output, 0 where it has none, and ``codes`` the outputs as int64
    code rows padded with ``STATUS_ABSENT``, built when first read."""

    def __init__(self, steps: list, mass: np.ndarray, answers: dict):
        self.steps, self.mass, self.answers = steps, mass, answers

    @cached_property
    def codes(self) -> np.ndarray:
        rows, done = np.full((1, len(self.steps)), STATUS_ABSENT, dtype=np.int64), []
        for i, (alphabet, _, ended, live) in enumerate(self.steps):
            prefix, code = np.repeat(np.arange(len(rows)), len(alphabet)), np.tile(alphabet, len(rows))
            for children in (ended, live):
                done.append(np.take(rows, prefix[children], axis=0))
                done[-1][:, i] = code[children]
            rows = done.pop()
        return np.concatenate(done)

    def keys(self, index: np.ndarray) -> list:
        """The canonical keys of the outputs at ``index``, a column at a time."""
        if not len(index):  # a passing check builds no code row
            return []
        codes = self.codes[index]
        columns = [[self.answers.get(c) for c in col] for col in codes.T.tolist()]
        lengths = np.count_nonzero(codes != STATUS_ABSENT, axis=1).tolist()
        return [row[:length] for row, length in zip(zip(*columns), lengths)]


class OutputDistribution:
    """Probability mass per canonical output, plus unassigned tail mass.

    ``masses`` maps each output's canonical key to its mass.  It is built on
    its first read where it is not passed.  The exact oracle passes a
    ``_CodeRows`` instead, kept as ``rows``, and the dict is built from it in
    the oracle's output order, with the masses bit for bit;
    ``max_privacy_loss`` pairs two sides of one lattice by position, so a
    check builds no key but those it reports.  ``rows`` is None otherwise.
    Monte Carlo passes None, and the dict is ``meta["counts"]`` over
    ``meta["samples"]``, in the order of the counts."""

    def __init__(self, mechanism: str, side: str, masses, truncation_loss: float, meta: dict | None = None):
        self.mechanism = mechanism
        self.side = side
        self.rows = masses if isinstance(masses, _CodeRows) else None
        self._masses = None if self.rows is not None else masses
        self.truncation_loss = truncation_loss
        self.meta = {} if meta is None else meta

    @property
    def masses(self) -> dict:
        if self._masses is None and self.rows is not None:
            at = np.flatnonzero(self.rows.mass > 0.0)
            self._masses = dict(zip(self.rows.keys(at), self.rows.mass[at].tolist()))
        elif self._masses is None:  # Monte Carlo
            samples = self.meta["samples"]
            self._masses = {k: c / samples for k, c in self.meta["counts"].items()}
        return self._masses

    def total_mass(self) -> float:
        return float(sum(self.masses.values()))

    def normalization_defect(self) -> float:
        return abs(self.total_mass() + self.truncation_loss - 1.0)


@dataclass(frozen=True)
class _Axis:
    bound: int
    values: np.ndarray
    pmf: np.ndarray
    tail: float


def _make_axis(scale: float, box: int | None) -> _Axis:
    bound = box if box is not None else discrete_laplace_box(scale, PER_DRAW_TAIL)
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    return _Axis(bound, values, discrete_laplace_pmf(values, scale), discrete_laplace_tail(bound, scale))


def _enum_axes(w: Workload, spec: NoiseSpec, box: int | None):
    """Axes in tape-consumption order: threshold, then per-query roles."""
    threshold, *query = [_make_axis(spec.scales[r], box) for r in ("threshold", *spec.layout.query_roles)]
    return [threshold] + query * len(w)


def enumerate_output_dist(mechanism: str, w: Workload, side: Side = Side.D, box: int | None = None, method: str = "per-query") -> OutputDistribution:
    """Exact output distribution under integer Laplace noise.

    The tapes of the per-role integer box, ``[-box, box]`` on every
    coordinate (a ``box`` that is not a non-negative ``int`` is a
    ``DomainError``) or by default each role's smallest box leaving less
    than ``PER_DRAW_TAIL`` outside, are weighted by their product pmf and
    their masses summed per canonical output; the mass outside the box is
    ``truncation_loss``.  The default ``method='per-query'`` conditions on
    the threshold draw, under which every answer depends on its own query's
    draws alone, through their margin over the noisy threshold: the array
    kernel runs once per distinct query value, over every margin the box
    gives it, each answer's mass is gathered from the noise law over the
    margins that give it, and outputs are built one position at a time as
    rows of answer codes (see ``_enumerate_per_query``); it raises
    ``GridBudgetExceeded`` when a step passes ``ENUM_CELL_CAP`` cells,
    whatever the box size.  Its distribution carries those rows, and builds
    the ``masses`` dict from the decoded answers only when it is read.
    ``method='per-tape'`` runs the per-tape mechanism on every point of a
    box of at most 2,000,000 as the independent check, and fills ``masses``
    as it goes.  ``meta["grid_points"]`` is the box size; the per-query
    method also counts its work in ``meta["stats"]``.  This is
    ``_enumerate_sides`` of one side, which ``check_dp_exact`` runs on two.

    The noise, the values and the threshold are added as int64 or, where a
    value or the threshold is a float, as float64.  So every value, the
    threshold and each value minus the threshold, plus the box bounds, must
    be below 2**61 in size (an int64 answer code holds four times a gap) or
    at most 2**53 (the integers a float64 holds exactly); past that the
    enumeration would not be exact, and it is a ``DomainError``.
    """
    return _enumerate_sides(mechanism, w, (side,), box, method)[0]


def _enumerate_sides(mechanism, w, sides, box=None, method="per-query") -> list:
    """``enumerate_output_dist`` of each of ``sides`` in one call; with the
    per-query method their ``rows`` share one lattice, and their
    distributions one ``meta["stats"]``, the call's single count."""
    check_workload_for(mechanism, w)
    if box is not None:
        if type(box) is not int:  # a bool, float or numpy integer too
            raise DomainError(f"enumeration box must be an int, got {box!r}")
        if box < 0:
            raise DomainError(f"enumeration box must be >= 0, got {box}")
    if not w.is_integer_valued():
        raise DomainError("exact enumeration needs integer query values and threshold")
    if mechanism == ADAPTIVE_GAP and not float(w.sigma).is_integer():
        raise DomainError("exact enumeration needs an integer sigma")
    budget = default_budget(mechanism, w)
    spec = budget.noise_spec(NoiseKind.DLAP)
    axes = _enum_axes(w, spec, box)
    _check_exact_range([q for side in sides for q in w.values(side)], w.threshold, axes[0].bound, max(ax.bound for ax in axes[1:]), "exact enumeration", "the noise box")
    total = math.prod(len(ax.values) for ax in axes)
    truncation_loss = 1.0 - math.prod(1.0 - ax.tail for ax in axes)

    if method == "per-tape":
        if total > 2_000_000:
            raise GridBudgetExceeded(total, 2_000_000, hint="the per-tape method runs one tape per box point")
        outputs, stats = [_enumerate_per_tape(mechanism, w, side, budget, axes) for side in sides], None
    elif method == "per-query":
        outputs, stats = _enumerate_per_query(mechanism, w, sides, budget, axes)
    else:
        raise DomainError(f"unknown enumeration method {method!r}")

    meta = {"grid_points": total, "bounds": [ax.bound for ax in axes], "per_draw_tail": PER_DRAW_TAIL, "method": method}
    if stats is not None:
        meta["stats"] = stats
    return [OutputDistribution(mechanism, side.value, masses, truncation_loss, dict(meta)) for side, masses in zip(sides, outputs)]


def _check_exact_range(values, threshold, draw: int, noise: int, what: str, bounded_by: str) -> None:
    """``DomainError`` unless the kernel's arithmetic is exact under noise of
    at most ``draw`` in size on the threshold and ``noise`` on each query:
    each value and the threshold, and each value's difference with the
    threshold, plus that noise, below 2**61 on ints (an int64 answer code
    is four times a gap, plus at most 3) and at most 2**53 where a float
    takes part.  ``what`` and ``bounded_by`` name the caller and its noise
    bound in the message."""
    ints = all(isinstance(x, numbers.Integral) for x in (*values, threshold))
    limit, bound = ((1 << 61) - 1, "below 2**61") if ints else (1 << 53, "at most 2**53")
    t = int(threshold)
    sizes = [(f"threshold {threshold!r}", abs(t), draw)]
    for q in values:
        sizes += [(f"value {q!r}", abs(int(q)), noise + draw), (f"value {q!r} minus the threshold", abs(int(q) - t), noise + draw)]
    for name, size, box in sizes:
        if size + box > limit:
            raise DomainError(
                f"{what} needs each value, the threshold and each value minus the threshold, "
                f"plus {bounded_by}, {bound} in size with {'int' if ints else 'float'} inputs; "
                f"{name} plus {box} is past it"
            )


def _largest_size(draws: np.ndarray) -> int:
    return max(-int(draws.min()), int(draws.max()))


def _enumerate_per_tape(mechanism, w, side, budget, axes) -> dict:
    masses: dict = {}
    value_lists = [ax.values.tolist() for ax in axes]
    pmf_lists = [ax.pmf.tolist() for ax in axes]
    for combo in itertools.product(*(range(len(v)) for v in value_lists)):
        weight = 1.0
        for ax_i, ci in enumerate(combo):
            weight *= pmf_lists[ax_i][ci]
        tape = NoiseTape.from_flat([value_lists[ax_i][ci] for ax_i, ci in enumerate(combo)], budget.layout)
        key = canonical(run_mechanism(mechanism, w, tape, side, budget).output)
        masses[key] = masses.get(key, 0.0) + weight
    return masses


def _cells(rows, cols) -> int:
    """The cells a step of ``rows`` rows and ``cols`` columns is charged: a
    row counts at least ``KEY_CELLS``."""
    return rows * max(cols, KEY_CELLS)


def _answer_tables(mechanism, w, sides, budget, threshold, query_axes, charge, stats) -> dict:
    """Each distinct value's answer codes, ascending, and their masses over
    its in-box draws given each threshold draw: ``(codes, draws)``,
    C-contiguous, for the values of every side in ``sides``.

    The kernel reads a query draw x only through the margin
    ``q + x - (T + e)``, so a value's answer code is a function of the
    differences ``x - e``, one per query role, each from ``-reach`` to
    ``reach`` over the box.  The kernel runs once per distinct value, at
    threshold draw 0, over that grid of differences.  Each code's points on
    it form a box, a range of differences per role: the first attempt
    answers where its difference clears one bound, the adaptive second
    attempt where the first does not and its own clears another, and the
    query is below the threshold where neither does.  That is checked, not
    assumed: a code whose points do not fill their box, or whose range on
    a role is neither one point nor touches an end of the grid, raises.

    Under threshold draw e a range of differences is a range of x shifted
    by e, so a code's mass is the product over roles of the pmf's mass on
    that range: the pmf itself for one point, else its running sum from the
    end the range touches, so no difference of sums cancels.  The grid, the
    same for every value, one row per point and one column, is charged once
    before it is built, and each table once its codes are known."""
    draws = len(threshold.values)
    reach = [ax.bound + threshold.bound for ax in query_axes]
    shape = [2 * r + 1 for r in reach]
    charge(math.prod(shape), 1)
    index = np.indices(shape).reshape(len(shape), -1)  # per role, each grid point's x - e + reach
    differences = [(i - r)[:, None] for i, r in zip(index, reach)]
    # per role, the pmf and its running sums from the right and from the
    # left, padded so that difference index i under draw index j reads
    # entry i + j, in windows: window i holds what i reads under each draw
    laws = []
    for ax in query_axes:
        pmf = np.pad(ax.pmf, 2 * threshold.bound)
        laws.append(sliding_window_view(np.stack([pmf, np.cumsum(pmf[::-1])[::-1], np.cumsum(pmf)]), draws, axis=1))
    tables = {}
    for q in dict.fromkeys(q for side in sides for q in set(w.values(side))):
        wq = Workload((q,), (q,), w.threshold, w.k, w.epsilon, w.sigma)
        status, gaps = run_status_gaps(mechanism, wq, Side.D, budget, 0, differences)
        grid = encode_int_rows(mechanism, status, gaps).ravel()
        inverse, rows = key_groups(grid)
        charge(len(rows))
        lo = np.full((len(shape), len(rows)), max(shape))
        hi = np.zeros_like(lo)
        for r, i in enumerate(index):
            np.minimum.at(lo[r], inverse, i)
            np.maximum.at(hi[r], inverse, i)
        ends = (lo == hi) | (lo == 0) | (hi == np.array(shape)[:, None] - 1)
        if not (ends.all() and np.array_equal(np.prod(hi - lo + 1, axis=0), np.bincount(inverse))):
            raise RuntimeError(f"the answer codes of value {q!r} do not cover the margin grid in edge-anchored boxes")
        table = np.ones((len(rows), draws))
        for law, a, b in zip(laws, lo, hi):
            left = (a == 0) & (a < b)
            kind = np.where(a == b, 0, np.where(left, 2, 1))
            table *= law[kind, np.where(left, b, a)]
        tables[q] = grid[rows], table
        stats["kernel_runs"] += 1
        stats["kernel_points"] += len(grid)
    return tables


def _enumerate_per_query(mechanism, w, sides, budget, axes) -> tuple[list, dict]:
    """P(omega) = sum_e p(e) * prod_i P_i(omega_i | e) * (in-box mass of the
    draws of every query after the run stopped), e the threshold draw, for
    each of ``sides`` on one lattice of output prefixes.

    ``P_i(. | e)`` comes from one array-kernel run per distinct value and
    the role pmfs (see ``_answer_tables``).  At each position the alphabet
    is the sorted union of the sides' answer codes, with each side's table
    on it (zero rows for codes it lacks), and each live prefix has a child
    per code, prefix-major: a step holds the alphabet, the tables, and the
    children that finish by the kernel's stop rule (``run_state_table``) and
    that stay live.  A child is kept while some side has a threshold draw
    under which all its codes have mass.  Then each side's masses per draw
    are carried along the steps in turn, the last contracted over ``e`` by
    one matrix product; the side's outputs of positive mass, in lattice
    order, are those it has enumerated alone, in the same order.

    A step's table has a column per threshold draw and a row per answer or
    per (live prefix, code) pair, the kernel's grid a row per point; one
    past ``ENUM_CELL_CAP`` cells (``_cells``) raises ``GridBudgetExceeded``
    before it is built.  Returns each side's ``_CodeRows`` and the counts of
    the work: kernel runs and grid points, the largest step's charged cells
    and the distinct codes decoded, each once."""
    n = len(w)
    threshold = axes[0]
    draws = len(threshold.values)
    stats = dict.fromkeys(("kernel_runs", "kernel_points", "largest_step_cells", "answers_decoded"), 0)

    def charge(rows, cols=draws):
        needed = _cells(rows, cols)
        if needed > ENUM_CELL_CAP:
            raise GridBudgetExceeded(needed, ENUM_CELL_CAP, hint="fewer queries or a larger epsilon need fewer")
        stats["largest_step_cells"] = max(stats["largest_step_cells"], needed)

    query_axes = axes[1 : 1 + len(budget.layout.query_roles)]
    tables = _answer_tables(mechanism, w, sides, budget, threshold, query_axes, charge, stats)
    query_inbox = math.prod(1.0 - ax.tail for ax in query_axes)
    step, stop, _ = run_state_table(mechanism, w, budget)

    # the live prefixes' run state, and per side the first and last threshold draw of mass
    state = np.zeros(1, dtype=np.int64)
    small = np.min_scalar_type(draws)
    first, last = np.zeros((len(sides), 1), dtype=small), np.full((len(sides), 1), draws - 1, dtype=small)
    answers, steps = {}, []  # each code's decoded answer; per position, the alphabet, the tables, the finished and the live children
    for i, values in enumerate(zip(*(w.values(side) for side in sides))):
        codes = np.sort(np.concatenate([tables[q][0] for q in values]))  # not np.unique: its first call imports numpy.ma
        alphabet = codes[np.append(True, codes[1:] != codes[:-1])]
        charge(len(state) * len(alphabet))
        answers.update((c, decode_row(mechanism, [c])[0]) for c in alphabet.tolist() if c not in answers)
        cond = np.zeros((len(sides), len(alphabet), draws))
        for s, q in enumerate(values):
            cond[s, np.searchsorted(alphabet, tables[q][0])] = tables[q][1]
        held = cond > 0.0
        code_first = np.where(held.any(axis=2), held.argmax(axis=2), draws).astype(small)
        code_last = (draws - 1 - held[:, :, ::-1].argmax(axis=2)).astype(small)
        first = np.maximum(first[:, :, None], code_first[:, None, :]).reshape(len(sides), -1)
        last = np.minimum(last[:, :, None], code_last[:, None, :]).reshape(len(sides), -1)
        kept = (first <= last).any(axis=0)
        state = (state[:, None] + step[alphabet & 3]).ravel()
        stopped = stop[state] | (i == n - 1)  # every child finishes at the last position
        ended, live = np.flatnonzero(kept & stopped), np.flatnonzero(kept & ~stopped)
        steps.append((alphabet, cond, ended, live))
        state, first, last = state[live], first[:, live], last[:, live]
    stats["answers_decoded"] = len(answers)

    outputs = []
    for s in range(len(sides)):
        mass, parts = np.ones((1, draws)), []  # per live prefix, its mass under each threshold draw
        for i, (_, cond, ended, live) in enumerate(steps[:-1]):
            mass = (mass[:, None, :] * cond[s][None, :, :]).reshape(len(mass) * len(cond[s]), -1)
            parts.append((mass[ended] @ threshold.pmf) * query_inbox ** (n - 1 - i))
            mass = mass[live]
        _, cond, ended, _ = steps[-1]
        parts.append(((mass * threshold.pmf) @ cond[s].T).ravel()[ended])
        outputs.append(_CodeRows(steps, np.concatenate(parts), answers))
    return outputs, stats


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def mc_output_dist(
    mechanism: str,
    w: Workload,
    side: Side,
    samples: int,
    seed,
    kind: NoiseKind = NoiseKind.DLAP,
    scale_epsilon_factor: float = 1.0,
    chunk: int = 1 << 20,
) -> OutputDistribution:
    """Empirical output distribution from vectorized sampling.

    Samples are drawn ``chunk`` rows at a time, and a chunk's draws are held
    whole; ``chunk`` fixes the draw order, and so the results.  The array
    kernel and the keying then take the chunk ``_DRAW_BLOCK`` rows at a
    time, so their arrays are a sub-block's whatever the chunk.  Integer
    outputs (discrete noise on an integer workload) are keyed by one exact
    int64 per row (``int_row_keys``, which rank-compresses the running key
    before it could overflow); each sub-block keeps its distinct code rows
    and their counts, which are grouped once more per chunk, and one row
    per key is decoded to the canonical output in key order.  Their codes
    must fit int64, so each chunk is held to the exact oracle's range, with
    the chunk's largest draws as the noise box: past it is a
    ``DomainError``, not a code that wraps.  Real-valued outputs are keyed
    by ``canonical_rows``, a column at a time, with released gaps rounded
    to ``GAP_NDIGITS`` digits exactly as ``round`` does.  The gap
    mechanisms' keys are counted by one ``Counter.update`` per sub-block;
    ``svt``'s status rows are grouped first, each distinct row keyed once
    and its count added in the rows' first-occurrence order, so the counts
    keep the order of a per-row count.  That ``Counter`` is
    ``meta["counts"]``; ``masses``, the counts over ``samples``, is built
    from it on its first read.
    ``side`` is a ``Side``, ``kind`` a ``NoiseKind``, ``samples`` and ``chunk``
    integers >= 1 and ``seed`` one ``seeded_rng`` takes, or a ``DomainError``.

    ``scale_epsilon_factor`` is a self-test hook: it rescales the noise as
    if the budget were ``factor * epsilon`` while everything else (including
    the adaptive guard) still believes in ``epsilon``, which breaks the
    privacy guarantee on purpose so detectors can be validated.  It and the
    scaled epsilon must be finite (``DomainError``), and it must be positive
    (``NonPositiveBudget``).
    """
    check_workload_for(mechanism, w)
    w.values(side)  # refuses a side that is no Side before any draw
    if not isinstance(kind, NoiseKind):
        raise DomainError(f"kind must be a NoiseKind, got {kind!r}")
    _check_int("samples", samples)
    _check_int("chunk", chunk)
    if not (_finite(scale_epsilon_factor) and _finite(w.epsilon * scale_epsilon_factor)):
        raise DomainError(f"scale_epsilon_factor must be a finite number, got {scale_epsilon_factor}")
    budget = default_budget(mechanism, w)
    scaled = Workload(w.d, w.dprime, w.threshold, w.k, w.epsilon * scale_epsilon_factor, w.sigma)
    spec = default_budget(mechanism, scaled).noise_spec(kind)
    rng = seeded_rng(seed)
    n = len(w)
    int_outputs = kind is NoiseKind.DLAP and w.is_integer_valued()
    counts: Counter = Counter()
    done = 0
    while done < samples:
        rows = min(chunk, samples - done)
        eta0 = _draw_block(rng, kind, spec.scales["threshold"], rows)
        per_query = tuple(_draw_block(rng, kind, spec.scales[r], (rows, n)) for r in spec.layout.query_roles)
        if int_outputs:
            noise = max(_largest_size(d) for d in per_query)
            _check_exact_range(w.values(side), w.threshold, _largest_size(eta0), noise, "Monte Carlo", "the chunk's largest noise draws")
        parts = []  # each integer sub-block's distinct code rows, in key order, and their counts
        for lo in range(0, rows, _DRAW_BLOCK):
            block = slice(lo, lo + _DRAW_BLOCK)
            status, gaps = run_status_gaps(mechanism, w, side, budget, eta0[block], tuple(d[block] for d in per_query))
            if int_outputs:
                codes = encode_int_rows(mechanism, status, gaps)
                inverse, key_rows = key_groups(int_row_keys(codes))
                parts.append((codes[key_rows], np.bincount(inverse)))
            elif mechanism == SVT_CLASSIC:  # no gaps: one key per distinct status row
                inverse, key_rows = key_groups(int_row_keys(status))
                first = np.full(len(key_rows), len(inverse))
                np.minimum.at(first, inverse, np.arange(len(inverse)))
                order = np.argsort(first)  # the rows' first-occurrence order, as a per-row count would insert them
                tally = np.bincount(inverse)[order].tolist()
                for key, c in zip(canonical_rows(mechanism, status[first[order]], None), tally):
                    counts[key] += c
            else:
                counts.update(canonical_rows(mechanism, status, gaps, GAP_NDIGITS))
        if len(parts) > 1:  # the chunk's distinct rows, grouped once more in key order
            codes = np.concatenate([c for c, _ in parts])
            inverse, key_rows = key_groups(int_row_keys(codes))
            tally = np.zeros(len(key_rows), dtype=np.int64)
            np.add.at(tally, inverse, np.concatenate([t for _, t in parts]))
            parts = [(codes[key_rows], tally)]
        for codes, tally in parts:
            for row, c in zip(codes.tolist(), tally.tolist()):
                counts[decode_row(mechanism, row)] += c
        done += rows
    return OutputDistribution(
        mechanism,
        side.value,
        None,
        truncation_loss=0.0,
        meta={"samples": samples, "counts": counts, "noise": kind.value},
    )


def _joined(a: dict, b: dict) -> tuple[list, np.ndarray, np.ndarray]:
    """The union keys of two mass (or count) dicts, the keys of ``a`` then
    those only ``b`` has, both in dict order, and each side's values over
    them as one float array, 0 where it lacks the key.

    This join serves every pair but two sides of one lattice (Monte Carlo,
    the per-tape oracle, sides enumerated apart, hand-built dicts); those
    are paired by position by ``_paired``, in the same order.  Output keys
    are tuples of strings, whose hashes change with every interpreter, so
    iterating a set of them would sum floats in a different order, and to
    different last bits, on every run.  Merging dicts reuses the hashes
    they store, so no key is hashed again."""
    joined = dict.fromkeys(a, 0.0)
    joined.update(b)  # b's masses, at a's positions for the keys both have
    ma = np.zeros(len(joined))
    ma[: len(a)] = np.fromiter(a.values(), float, len(a))
    return list(joined), ma, np.fromiter(joined.values(), float, len(joined))


def _paired(a: _CodeRows, b: _CodeRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_joined`` for two sides of one lattice: the positions of the outputs
    of ``a``, then of those only ``b`` has, each in order, and their masses."""
    held = a.mass > 0.0
    order = np.concatenate([np.flatnonzero(held), np.flatnonzero(~held & (b.mass > 0.0))])
    return order, a.mass[order], b.mass[order]


def tv_distance(a: OutputDistribution, b: OutputDistribution) -> float:
    """Total variation over the union of outputs of one mechanism, with
    unassigned (tail) mass treated as one extra bucket."""
    if a.mechanism != b.mechanism:
        raise DomainMismatch(f"distributions from {a.mechanism!r} vs {b.mechanism!r}")
    _, ma, mb = _joined(a.masses, b.masses)
    s = sum(np.abs(ma - mb).tolist())  # the builtin sum, in key order, for the same last bits
    s += abs(a.truncation_loss - b.truncation_loss)
    return 0.5 * s


# ---------------------------------------------------------------------------
# Privacy-loss evaluation


@dataclass(frozen=True)
class PrivacyLossResult:
    """Likelihood-ratio maxima between two output distributions.

    padded_max pads both masses by the truncation bound tau (the reported
    headline number); raw_max uses no padding and only outputs present on
    both sides; certified_max pads only the denominator, which is a sound
    upper-bound certificate: if the mechanism really is eps-DP then
    certified_max <= eps up to float error, truncation notwithstanding.
    one_sided lists outputs whose mass exceeds tau on one side while absent
    on the other; any such output is verdict material.  outputs counts the
    outputs of either side.
    """

    padded_max: float
    raw_max: float
    certified_max: float
    tau: float
    one_sided: tuple
    outputs: int

    def material_one_sided(self) -> bool:
        return len(self.one_sided) > 0


def _largest_log(ratios: np.ndarray) -> float:
    """The largest ``math.log`` of the ratios, -inf when there are none.

    log is monotone, so only the largest ratio is taken to ``math.log``:
    the figure is the one a per-output loop of ``math.log`` would reach."""
    return math.log(ratios.max()) if len(ratios) else -math.inf


def _largest_abs_log(ratios: np.ndarray) -> float:
    """The largest ``abs(math.log(r))`` of the ratios, at least 0."""
    return max(0.0, _largest_log(ratios), -math.log(ratios.min()) if len(ratios) else 0.0)


def max_privacy_loss(p: OutputDistribution, q: OutputDistribution) -> PrivacyLossResult:
    """The three maxima over the outputs of either side, compared as aligned
    mass arrays: numpy forms every ratio, and ``math.log`` takes only the
    extreme ones.  A zero denominator is an infinite ratio.

    Two sides of one lattice (enumerated together, as ``check_dp_exact``
    does) are paired by position (``_paired``), and only the ``one_sided``
    outputs' keys are built; any other pair is joined on its ``masses``
    dicts (``_joined``).  Both give the outputs in one order, ``p``'s then
    those only ``q`` has, so every field is the same either way."""
    if p.mechanism != q.mechanism:
        raise DomainMismatch(f"distributions from {p.mechanism!r} vs {q.mechanism!r}")
    tau = max(p.truncation_loss, q.truncation_loss)
    paired = p.rows is not None and q.rows is not None and p.rows.steps is q.rows.steps
    keys, pm, qm = _paired(p.rows, q.rows) if paired else _joined(p.masses, q.masses)
    seen = pm + qm > 0.0
    in_p, in_q = pm > 0.0, qm > 0.0
    both = in_p & in_q
    with np.errstate(divide="ignore", over="ignore"):
        raw_max = _largest_abs_log(pm[both] / qm[both])
        if tau > 0.0:
            padded_max = _largest_abs_log((pm[seen] + tau) / (qm[seen] + tau))
        else:
            padded_max = math.inf if np.any(seen & ~both) else raw_max
        certified_max = max(
            0.0,
            _largest_log(pm[in_p] / (qm[in_p] + tau)),
            _largest_log(qm[in_q] / (pm[in_q] + tau)),
        )
    one = np.flatnonzero(((pm == 0.0) & (qm > tau)) | ((qm == 0.0) & (pm > tau)))
    one_keys = p.rows.keys(keys[one]) if paired else [keys[i] for i in one.tolist()]
    one_sided = tuple((key, "d" if a > 0 else "dprime", max(a, b)) for key, a, b in zip(one_keys, pm[one].tolist(), qm[one].tolist()))
    return PrivacyLossResult(padded_max, raw_max, certified_max, tau, one_sided, len(pm))


def check_dp_exact(mechanism: str, w: Workload) -> tuple[PrivacyReport, PrivacyLossResult]:
    """Enumerate both sides of an integer workload in one call and compare the
    maximum log likelihood ratio against epsilon; ``GridBudgetExceeded`` as
    there.  ``max_privacy_loss`` pairs the sides and counts their outputs
    (``checks_run``), so all the comparison's work is inside its call."""
    p, q = _enumerate_sides(mechanism, w, (Side.D, Side.DPRIME))
    loss = max_privacy_loss(p, q)
    ok = (
        loss.certified_max <= w.epsilon + 1e-9
        and loss.padded_max <= w.epsilon + PADDED_SLACK
        and not loss.material_one_sided()
    )
    report = PrivacyReport(
        "pass" if ok else "fail",
        "dp-exact",
        mechanism,
        trials=1,
        checks_run=loss.outputs,
        max_log_ratio=loss.padded_max,
        truncation_loss=p.truncation_loss + q.truncation_loss,
        notes={
            "epsilon": w.epsilon,
            "certified_max": loss.certified_max,
            "raw_max": loss.raw_max,
            "tau": loss.tau,
            "grid_points": p.meta["grid_points"],
            "workload": w.to_json_dict(),
        },
    )
    if not ok:
        report.witness = Witness(
            kind="dp-exact",
            mechanism=mechanism,
            noise=NoiseKind.DLAP.value,
            workload=w.to_json_dict(),
            detail=(
                f"max log ratio padded={loss.padded_max} certified={loss.certified_max} "
                f"vs epsilon={w.epsilon}; one_sided={list(loss.one_sided)[:3]}"
            ),
        )
    return report, loss


def _wilson_bounds(count: int, n: int, z: float) -> tuple[float, float]:
    phat = count / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def mc_privacy_estimate(
    mechanism: str,
    w: Workload,
    samples: int,
    seed,
    kind: NoiseKind = NoiseKind.DLAP,
    scale_epsilon_factor: float = 1.0,
) -> PrivacyReport:
    """Sampling-based falsifier: flags outputs whose empirical likelihood
    ratio exceeds epsilon beyond a Wilson-interval margin.

    A clean report is evidence, not a proof; the harness exists to catch
    broken mechanisms, and is validated by the scale_epsilon_factor
    self-test which must produce flags.
    """
    _check_int("samples", samples, least=10**4)  # per side
    p = mc_output_dist(mechanism, w, Side.D, samples, (seed, 0), kind, scale_epsilon_factor)
    q = mc_output_dist(mechanism, w, Side.DPRIME, samples, (seed, 1), kind, scale_epsilon_factor)
    eps = w.epsilon
    flagged = []
    keys, counts_p, counts_q = _joined(p.meta["counts"], q.meta["counts"])
    # counts stay below 2**53, so the float arrays hold them exactly
    for key, cp, cq in zip(keys, map(int, counts_p.tolist()), map(int, counts_q.tolist())):
        lp, up = _wilson_bounds(cp, samples, WILSON_Z)
        lq, uq = _wilson_bounds(cq, samples, WILSON_Z)
        if lp > 0 and uq > 0 and math.log(lp / uq) > eps:
            flagged.append((key, cp, cq))
        elif lq > 0 and up > 0 and math.log(lq / up) > eps:
            flagged.append((key, cp, cq))
    report = PrivacyReport(
        "pass" if not flagged else "fail",
        "dp-mc",
        mechanism,
        trials=samples,
        checks_run=len(keys),
        max_log_ratio=max_privacy_loss(p, q).raw_max,
        truncation_loss=0.0,
        notes={
            "method": "monte-carlo falsification heuristic; a clean run is not a proof",
            "z": WILSON_Z,
            "noise": kind.value,
            "flagged": [[[list(a) if isinstance(a, tuple) else a for a in k], cp, cq] for k, cp, cq in flagged[:10]],
            "epsilon": eps,
        },
    )
    if flagged:
        key, cp, cq = flagged[0]
        report.witness = Witness(
            kind="dp-mc",
            mechanism=mechanism,
            noise=kind.value,
            workload=w.to_json_dict(),
            got=key,
            detail=f"output {key!r} seen {cp} vs {cq} times in {samples} samples/side exceeds e^eps",
        )
    return report


# ---------------------------------------------------------------------------
# Curated integer instances for the exact oracle


def default_enumeration_instances(mechanism: str) -> list[Workload]:
    """Small integer workloads whose exact oracle stays within
    ``ENUM_CELL_CAP`` at the default tail tolerance.  Each list ends with
    a tight instance, ``[(1, 0)] * 7 + [(0, 1)]`` at threshold 0: its
    certified loss is above 0.9 epsilon, so noise scaled for 2 epsilon
    fails it."""
    tight = [(1, 0)] * 7 + [(0, 1)]
    if mechanism == SVT_GAP:
        return [
            Workload.from_values([(1, 0)], 0, 1, 1.0),
            Workload.from_values([(2, 3)], 2, 1, 1.0),
            Workload.from_values([(5, 4)], 5, 1, 2.0),
            Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0),
            Workload.from_values([(3, 2), (4, 3)], 3, 1, 1.0),
            Workload.from_values([(0, 1), (1, 0)], 0, 2, 1.0),
            Workload.from_values([(1, 0), (2, 1)], 1, 2, 2.0),
            Workload.from_values([(1, 0), (0, 0)], 0, 1, 0.5),
            Workload.from_values([(2, 1), (2, 3)], 2, 2, 2.0),
            Workload.from_values(tight, 0, 1, 1.0),
        ]
    if mechanism == SVT_CLASSIC:
        return [
            Workload.from_values([(1, 0)], 0, 1, 1.0),
            Workload.from_values([(0, 1), (1, 0)], 0, 1, 1.0),
            Workload.from_values([(2, 1), (1, 2)], 1, 2, 1.0),
            Workload.from_values([(1, 1), (0, 1)], 1, 1, 2.0),
            Workload.from_values([(4, 3), (3, 4)], 3, 1, 0.5),
            Workload.from_values(tight, 0, 1, 1.0),
        ]
    if mechanism == ADAPTIVE_GAP:
        return [
            Workload.from_values([(6, 5)], 4, 1, 1.0, sigma=2),
            Workload.from_values([(5, 4)], 4, 1, 1.0, sigma=2),
            Workload.from_values([(4, 5)], 4, 1, 2.0, sigma=1),
            Workload.from_values([(0, 1)], 0, 1, 1.0, sigma=3),
            Workload.from_values([(1, 0)], 0, 1, 2.0, sigma=0),
            Workload.from_values([(1, 0), (0, 1)], 0, 1, 8.0, sigma=1),
            Workload.from_values([(2, 1), (1, 1)], 1, 2, 16.0, sigma=2),
            Workload.from_values([(3, 2), (2, 3)], 2, 1, 8.0, sigma=1),
            Workload.from_values(tight, 0, 1, 1.0, sigma=2),
        ]
    raise DomainError(f"unknown mechanism {mechanism!r}")
