"""Tape-consuming runs of the three mechanisms, plus budget arithmetic.

Budgets are kept as exact rationals so the defining identities
(eps0 + 2k*eps1 = eps for the plain split, eps0 + 2k*eps2 = eps for the
adaptive one) and the adaptive cost ledger hold exactly, not just to float
tolerance.  Noise scales are converted to floats only at sampling time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import ClassVar, Mapping, Union

from .core import (
    BOT_KEY,
    TOP_KEY,
    Branch,
    NoiseKind,
    NoiseSpec,
    NoiseTape,
    Side,
    TapeLayout,
    Workload,
    _integer,
    check_workload,
    draw_tape,
    seeded_rng,
)
from .errors import DomainError, LayoutMismatch, NonPositiveBudget, TapeExhausted

SVT_CLASSIC = "svt"
SVT_GAP = "svt-gap"
ADAPTIVE_GAP = "adaptive-gap"
MECHANISMS = (SVT_CLASSIC, SVT_GAP, ADAPTIVE_GAP)

Rational = Union[int, float, Fraction]

# module aliases: a member lookup on an Enum class costs several times a global's
_SINGLE, _PAIRED = TapeLayout.SINGLE, TapeLayout.PAIRED
_FIRST, _SECOND = Branch.FIRST, Branch.SECOND
_PLAIN_KEY, _FIRST_KEY, _SECOND_KEY = Branch.PLAIN.value, _FIRST.value, _SECOND.value


def _fraction(x: Rational, name: str) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise NonPositiveBudget(f"{name} must be positive, got {x}")
    return f


class _RoleBudget:
    """What both budgets share: ``pieces`` maps each noise role of
    ``layout`` to its epsilon.  A role's noise scale is the inverse of its
    epsilon, and an alignment pays that epsilon per unit it shifts a draw of
    the role.  Budgets are cached and shared process-wide, so ``pieces``,
    ``weights`` and each spec's ``scales`` are read-only views."""

    layout: ClassVar[TapeLayout]
    pieces: Mapping

    @cached_property
    def weights(self) -> Mapping:
        """``pieces`` as floats: what the alignment cost weighs each role's shift by."""
        return MappingProxyType({role: float(eps) for role, eps in self.pieces.items()})

    @cached_property
    def _noise_specs(self) -> dict:
        return {}

    def noise_spec(self, kind: NoiseKind = NoiseKind.LAPLACE) -> NoiseSpec:
        """Each role's noise scale, ``1 / epsilon`` as a float, built once per
        kind and budget; a subnormal epsilon has none, a ``DomainError``
        naming the role, raised on every call."""
        spec = self._noise_specs.get(kind)
        if spec is None:
            scales = {}
            for role, eps in self.pieces.items():
                try:
                    scales[role] = float(1 / eps)
                except OverflowError:
                    raise DomainError(
                        f"noise role {role!r} has epsilon {float(eps)!r}, too small for a float noise scale 1/epsilon"
                    ) from None
            spec = self._noise_specs[kind] = NoiseSpec(kind, scales)
        return spec


@dataclass(frozen=True)
class SvtBudget(_RoleBudget):
    """Threshold/query budget split for the plain SVT variants."""

    layout: ClassVar[TapeLayout] = TapeLayout.SINGLE

    epsilon0: Fraction
    epsilon1: Fraction
    epsilon: Fraction
    k: int

    def __post_init__(self):
        for name in ("epsilon0", "epsilon1", "epsilon"):
            if getattr(self, name) <= 0:
                raise NonPositiveBudget(f"{name} must be positive")
        _positive_count(self.k)

    def identity_holds(self) -> bool:
        return self.epsilon0 + 2 * self.k * self.epsilon1 == self.epsilon

    @cached_property
    def pieces(self) -> Mapping:
        return MappingProxyType({"threshold": self.epsilon0, "query": self.epsilon1})


@dataclass(frozen=True)
class AdaptiveBudget(_RoleBudget):
    """Budget pieces for the adaptive mechanism.

    epsilon1 <= epsilon2 is required: the per-query worst case is then
    2*epsilon2, so a run that stops once the remaining headroom drops below
    2*epsilon2 can never overshoot epsilon.
    """

    layout: ClassVar[TapeLayout] = TapeLayout.PAIRED

    epsilon0: Fraction
    epsilon1: Fraction
    epsilon2: Fraction
    epsilon: Fraction

    def __post_init__(self):
        for name in ("epsilon0", "epsilon1", "epsilon2", "epsilon"):
            if getattr(self, name) <= 0:
                raise NonPositiveBudget(f"{name} must be positive")
        if not self.epsilon1 <= self.epsilon2:
            raise NonPositiveBudget("epsilon1 must not exceed epsilon2")
        if not self.epsilon0 + 2 * self.epsilon2 <= self.epsilon:
            raise NonPositiveBudget(
                "epsilon0 + 2*epsilon2 must not exceed epsilon (no query could be processed)"
            )

    @cached_property
    def guard_limit(self) -> Fraction:
        """Largest running cost that still leaves room for a worst-case query."""
        return self.epsilon - 2 * self.epsilon2

    @cached_property
    def charge_first(self) -> Fraction:
        """Ledger increment of a first-branch positive answer."""
        return 2 * self.epsilon1

    @cached_property
    def charge_second(self) -> Fraction:
        """Ledger increment of a second-branch positive answer."""
        return 2 * self.epsilon2

    @cached_property
    def piece_units(self) -> tuple[int, int, int, int, int]:
        """``(d, epsilon0, epsilon1, epsilon2, epsilon)``: the pieces as
        integer multiples of ``1/d``, d their least common denominator."""
        pieces = (self.epsilon0, self.epsilon1, self.epsilon2, self.epsilon)
        d = math.lcm(*(f.denominator for f in pieces))
        return (d, *(f.numerator * (d // f.denominator) for f in pieces))

    @cached_property
    def guard_units(self) -> tuple[int, int, int]:
        """``(first, second, headroom)``: the two charges and
        ``guard_limit - epsilon0`` in the units of ``piece_units``.

        After j1 first-branch and j2 second-branch positives the running cost
        exceeds the guard limit exactly when ``j1*first + j2*second >
        headroom``, so a run evaluates its guard without rational arithmetic.
        """
        _, eps0, eps1, eps2, eps = self.piece_units
        return 2 * eps1, 2 * eps2, eps - 2 * eps2 - eps0

    @cached_property
    def _costs_after(self) -> dict:
        return {}

    def cost_after(self, j1: int, j2: int) -> Fraction:
        """Running cost after j1 first-branch and j2 second-branch positives,
        computed once per (j1, j2) and budget."""
        costs = self._costs_after
        cost = costs.get((j1, j2))
        if cost is None:
            cost = costs[(j1, j2)] = self.epsilon0 + j1 * self.charge_first + j2 * self.charge_second
        return cost

    @cached_property
    def pieces(self) -> Mapping:
        return MappingProxyType(
            {"threshold": self.epsilon0, "query_first": self.epsilon1, "query_second": self.epsilon2}
        )


def _positive_count(k) -> int:
    """``k`` as a Python int; a bool or no integer is a DomainError, below 1 a NonPositiveBudget."""
    if not _integer(k):
        raise DomainError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise NonPositiveBudget(f"k must be >= 1, got {k}")
    return int(k)


# typed: 2.0 and True equal 2 and 1 as keys, and must not hit their entries
@lru_cache(maxsize=4096, typed=True)
def budget_split_svt(epsilon: Rational, k: int) -> SvtBudget:
    """The standard split: half the budget on the threshold, the rest spread
    over the k possible positive answers (eps0 = eps/2, eps1 = eps/(4k))."""
    eps = _fraction(epsilon, "epsilon")
    k = _positive_count(k)
    return SvtBudget(epsilon0=eps / 2, epsilon1=eps / (4 * k), epsilon=eps, k=k)


@lru_cache(maxsize=4096, typed=True)
def budget_split_adaptive(epsilon: Rational, k: int) -> AdaptiveBudget:
    """Default adaptive split: eps0 = eps/2, eps2 = eps/(4k), eps1 = eps/(8k).

    Chosen so that k worst-case (second-branch) answers exactly exhaust the
    budget and a first-branch answer costs half as much.  Callers may build
    an AdaptiveBudget directly to override, subject to its invariants.
    """
    eps = _fraction(epsilon, "epsilon")
    k = _positive_count(k)
    return AdaptiveBudget(
        epsilon0=eps / 2,
        epsilon1=eps / (8 * k),
        epsilon2=eps / (4 * k),
        epsilon=eps,
    )


@dataclass(frozen=True)
class LedgerEvent:
    index: int
    branch: Branch
    increment: Fraction
    running_cost: Fraction  # the ledger's running cost after this event


@dataclass
class CostLedger:
    """Privacy cost of an adaptive run: the initial charge epsilon0, one
    event per positive answer, and the running cost after the last event."""

    initial: Fraction
    running_cost: Fraction
    events: list = field(default_factory=list)

    def cost_at(self, step: int) -> Fraction:
        """Running cost after the first ``step`` charged events, as the
        ledger recorded it."""
        return self.events[step - 1].running_cost if step else self.initial


def svt_gap_run(w: Workload, tape: NoiseTape, side: Side = Side.D) -> tuple:
    """Report which queries clear the noisy threshold, with the positive
    answers carrying their noisy margin; stops after the k-th positive."""
    return run_mechanism(SVT_GAP, w, tape, side).output


def svt_classic_run(w: Workload, tape: NoiseTape, side: Side = Side.D) -> tuple:
    """Same loop as svt_gap_run but positives are bare markers (no margin)."""
    return run_mechanism(SVT_CLASSIC, w, tape, side).output


def _svt_run(w: Workload, tape: NoiseTape, side: Side, with_gap: bool):
    if tape.layout is not _SINGLE:
        raise LayoutMismatch("single draw requested from a paired tape")
    draws = tape.flat()
    values = w.values(side)
    noisy_threshold = w.threshold + draws[0]
    consumed = 1  # the threshold draw
    answers = []
    count = 0
    for q, eta_i in zip(values, draws[1:]):
        consumed += 1
        gap = q + eta_i - noisy_threshold  # same draw decides and is released
        if gap >= 0:
            answers.append((_PLAIN_KEY, gap) if with_gap else TOP_KEY)
            count += 1
            if count >= w.k:
                break
        else:
            answers.append(BOT_KEY)
    else:
        if len(draws) <= len(values):
            raise TapeExhausted(f"tape has only {len(tape)} per-query entries")
    return tuple(answers), consumed


def _adaptive_run(w: Workload, budget: AdaptiveBudget, tape: NoiseTape, side: Side):
    """Two-attempt variant: a wide-noise first test must clear the threshold
    by at least sigma (cheap answer), otherwise a narrow-noise second test
    must clear it at all (expensive answer).  Below-threshold answers are
    free; the run stops once the ledger cannot afford a worst-case query."""
    if tape.layout is not _PAIRED:
        raise LayoutMismatch("paired draw requested from a single-layout tape")
    flat = tape.flat()
    draws = iter(flat)
    values = w.values(side)
    sigma = w.sigma
    noisy_threshold = w.threshold + next(draws)
    consumed = 1  # the threshold draw
    # the guard `running cost > guard_limit`, exactly, in integer units
    first_units, second_units, headroom = budget.guard_units
    spent = j1 = j2 = 0
    answers = []
    events = []
    # each query reads its first draw, then its second
    for i, (q, first_noise, second_noise) in enumerate(zip(values, draws, draws)):
        consumed += 2
        first_gap = q + first_noise - noisy_threshold
        if first_gap >= sigma:
            answers.append((_FIRST_KEY, first_gap))
            spent += first_units
            j1 += 1
            events.append(LedgerEvent(i, _FIRST, budget.charge_first, budget.cost_after(j1, j2)))
        else:
            second_gap = q + second_noise - noisy_threshold
            if second_gap >= 0:
                answers.append((_SECOND_KEY, second_gap))
                spent += second_units
                j2 += 1
                events.append(LedgerEvent(i, _SECOND, budget.charge_second, budget.cost_after(j1, j2)))
            else:
                answers.append(BOT_KEY)
        if spent > headroom:
            break
    else:
        if len(flat) < 1 + 2 * len(values):
            raise TapeExhausted(f"tape has only {len(tape)} per-query entries")
    ledger = CostLedger(budget.epsilon0, budget.cost_after(j1, j2), events)
    return tuple(answers), ledger, consumed


@dataclass(frozen=True)
class RunResult:
    """One mechanism run plus the instrumentation the verifier needs."""

    output: tuple  # the answers, one per query read
    consumed: int  # scalar tape draws actually read, threshold included
    ledger: CostLedger | None = None


def run_mechanism(
    mechanism: str,
    w: Workload,
    tape: NoiseTape,
    side: Side = Side.D,
    budget: SvtBudget | AdaptiveBudget | None = None,
) -> RunResult:
    """The one entry of a per-tape run: gate ``w`` by ``check_workload_for``,
    run ``mechanism`` on ``tape`` and capture the consumed-draw count.
    ``budget`` is the mechanism's, ``default_budget`` when left out; only
    the adaptive run reads it, for its guard and ledger."""
    check_workload_for(mechanism, w)
    if mechanism == ADAPTIVE_GAP:
        if budget is None:
            budget = default_budget(mechanism, w)
        out, ledger, consumed = _adaptive_run(w, budget, tape, side)
        return RunResult(out, consumed, ledger)
    out, consumed = _svt_run(w, tape, side, mechanism == SVT_GAP)
    return RunResult(out, consumed)


def check_workload_for(mechanism: str, w: Workload) -> None:
    """``check_workload`` plus what ``mechanism`` needs of ``w``: the one
    gate every per-tape run, the exact oracle and Monte Carlo share."""
    check_workload(w)
    if mechanism not in MECHANISMS:
        raise DomainError(f"unknown mechanism {mechanism!r}")
    if mechanism == ADAPTIVE_GAP and w.sigma is None:
        raise DomainError("adaptive mechanism requires workload.sigma")


def default_budget(mechanism: str, w: Workload) -> SvtBudget | AdaptiveBudget:
    """The budget a run of ``mechanism`` on ``w`` uses, the one place a
    budget is chosen: the default split of ``w.epsilon`` over ``w.k``."""
    if mechanism == ADAPTIVE_GAP:
        return budget_split_adaptive(w.epsilon, w.k)
    return budget_split_svt(w.epsilon, w.k)


def sample_run(
    mechanism: str,
    w: Workload,
    side: Side,
    seed,
    kind: NoiseKind = NoiseKind.LAPLACE,
) -> tuple[RunResult, NoiseTape]:
    """Sample a tape at the mechanism's scales and run; fully determined by
    the seed, which ``seeded_rng`` takes."""
    check_workload_for(mechanism, w)
    budget = default_budget(mechanism, w)
    tape = draw_tape(budget.noise_spec(kind), len(w), seeded_rng(seed))
    return run_mechanism(mechanism, w, tape, side, budget), tape
