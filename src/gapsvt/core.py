"""Workloads, noise tapes and noise distributions.

A mechanism in this package is a deterministic function of a workload and a
noise tape.  A workload stores its two sides as one value tuple each, ``d``
and ``dprime``.  A tape stores one flat tuple of draws in consumption order:
the threshold draw, then each query's draws, one for the plain SVT
variants and a pair for the adaptive variant.  Keeping the randomness
explicit is what makes output sequences replayable and alignments testable.
Both types write and read the JSON dicts a witness carries
(``to_json_dict`` and ``from_json_dict``); the reader rejects a malformed
dict with a ``DomainError`` naming the field.

Each draw has a noise role: ``threshold``, then the layout's
``query_roles`` for every query.  The roles are the one table the rest of
the package reads: a budget maps each role to its epsilon, the noise scale
of a role is the inverse of that epsilon, an alignment is a tape of shifts
over the same roles, and its cost weighs each role's shift by the epsilon.

Every draw comes from one sampler, ``_draw``, and its per-tape twin
``draw_tape``: Laplace noise by the inverse CDF of open uniforms, integer
Laplace noise as a difference of two geometrics, each the ceiling of a
scaled standard exponential.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DomainError,
    EmptyWorkload,
    LayoutMismatch,
    NonPositiveBudget,
    SensitivityViolation,
)


class Side(str, Enum):
    """Which of the two adjacent value sequences a run reads."""

    D = "d"
    DPRIME = "dprime"


class TapeLayout(str, Enum):
    SINGLE = "single"   # one draw per query
    PAIRED = "paired"   # (first, second) draws per query

    @cached_property
    def query_roles(self) -> tuple[str, ...]:
        """The noise roles of one query's draws, in consumption order."""
        return ("query",) if self is TapeLayout.SINGLE else ("query_first", "query_second")


# module aliases: a member lookup on an Enum class costs several times a global's
_D, _SINGLE = Side.D, TapeLayout.SINGLE


class NoiseKind(str, Enum):
    LAPLACE = "laplace"  # continuous Laplace, inverse-CDF sampled
    DLAP = "dlap"        # discrete (integer) Laplace


class Branch(str, Enum):
    """Which comparison produced a positive answer."""

    PLAIN = "plain"    # the single comparison of the non-adaptive variants
    FIRST = "first"    # adaptive first attempt (wide noise, margin sigma)
    SECOND = "second"  # adaptive second attempt (narrow noise, margin 0)


@dataclass(frozen=True)
class Workload:
    """An adjacent pair of query value sequences plus mechanism parameters.

    The two sides are stored as one value tuple each, ``d`` and ``dprime``,
    named like ``Side``.  ``check_workload`` marks an instance that passed
    it, so a workload that every layer of a run gates is checked once."""

    d: tuple
    dprime: tuple
    threshold: float
    k: int
    epsilon: float
    sigma: float | None = None  # adaptive first-attempt margin

    _checked = False  # not a field: set on the instance by check_workload

    @classmethod
    def from_values(
        cls, pairs: Sequence[Sequence[float]], threshold: float, k: int, epsilon: float, sigma: float | None = None
    ) -> "Workload":
        """A workload from its ``(value on D, value on D')`` pairs."""
        pairs = [(a, b) for a, b in pairs]
        return cls(tuple([a for a, _ in pairs]), tuple([b for _, b in pairs]), threshold, k, epsilon, sigma)

    def __len__(self) -> int:
        return len(self.d)

    def values(self, side: Side) -> tuple:
        return self.d if side is _D else self.dprime

    def deltas(self) -> tuple:
        """``d[i] - dprime[i]`` per query, computed on each call."""
        return tuple([a - b for a, b in zip(self.d, self.dprime)])

    def swapped(self) -> "Workload":
        """The same workload with the two sides exchanged; it passes
        ``check_workload`` exactly when this one does."""
        w = Workload(self.dprime, self.d, self.threshold, self.k, self.epsilon, self.sigma)
        if self._checked:
            object.__setattr__(w, "_checked", True)
        return w

    def is_integer_valued(self) -> bool:
        return float(self.threshold).is_integer() and all(float(x).is_integer() for x in (*self.d, *self.dprime))

    def to_json_dict(self) -> dict:
        """The workload as a witness carries it: ``pairs`` of ``[value on D,
        value on D']``, then the parameters."""
        pairs = [[a, b] for a, b in zip(self.d, self.dprime)]
        return {"pairs": pairs, "threshold": self.threshold, "k": self.k, "epsilon": self.epsilon, "sigma": self.sigma}

    @classmethod
    def from_json_dict(cls, data) -> "Workload":
        """Inverse of ``to_json_dict`` for any decoded JSON value: a field
        missing, unknown or of the wrong type is a ``DomainError`` naming it,
        and the workload must pass ``check_workload``."""
        if not isinstance(data, dict):
            raise DomainError("workload file must contain a JSON object")
        unknown = sorted(set(data) - {"pairs", "threshold", "k", "epsilon", "sigma"})
        if unknown:
            raise DomainError(f"unknown workload field {unknown[0]!r}")
        for name in ("pairs", "threshold", "k", "epsilon"):
            if name not in data:
                raise DomainError(f"workload field {name!r} is missing")
        pairs = data["pairs"]
        if not isinstance(pairs, list):
            raise DomainError("field 'pairs' must be an array of [qD, qDprime] pairs")
        for i, entry in enumerate(pairs):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not all(map(_number, entry)):
                raise DomainError(f"field 'pairs' entry {i} must be a pair of numbers")
        for name in ("threshold", "epsilon"):
            if not _number(data[name]):
                raise DomainError(f"field {name!r} must be a number")
        sigma = data.get("sigma")
        if sigma is not None and not _number(sigma):
            raise DomainError("field 'sigma' must be a number")
        return check_workload(cls.from_values(pairs, data["threshold"], data["k"], data["epsilon"], sigma))


def _number(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer(x) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A number that is finite as a float; False for anything else."""
    try:
        return math.isfinite(x)
    except (OverflowError, TypeError):  # an int beyond the float range, or no number
        return False


def _bad_field(w: Workload) -> str | None:
    """The message naming the first field of ``w`` the gate refuses, if any:
    ``k`` must be an integer but not a bool, ``sigma`` None or a finite
    number, and every other number finite."""
    if not _integer(w.k):
        return f"field 'k' must be an integer, got {w.k!r}"
    for name in ("threshold", "epsilon", "sigma"):
        x = getattr(w, name)
        if not (x is None and name == "sigma" or _finite(x)):
            return f"field {name!r} must be a finite number"
    for i, pair in enumerate(zip(w.d, w.dprime)):
        for j, x in enumerate(pair):
            if not _finite(x):
                return f"field 'pairs[{i}][{j}]' must be a finite number"
    return None


def check_workload(w: Workload) -> Workload:
    """Gate every consumer of a workload behind the structural invariants.

    Raises the first violation found; returns the workload unchanged when it
    is valid so call sites can chain on it.  ``k`` must be an integer, not a
    bool, and every other number a finite float, ``sigma`` alone may be
    None: NaN, infinities, ints beyond the float range and values that are
    no number are rejected with the field named.  A workload that passed
    once is frozen, so it is not checked again.
    """
    if w._checked:
        return w
    if len(w.d) == 0:
        raise EmptyWorkload("workload has no query pairs")
    if len(w.dprime) != len(w.d):
        raise DomainError(f"workload sides hold {len(w.d)} and {len(w.dprime)} values")
    isfinite = math.isfinite
    try:  # fast path; any field it does not pass takes the named walk
        valid = (
            type(w.k) is int
            and isfinite(w.threshold)
            and isfinite(w.epsilon)
            and (w.sigma is None or isfinite(w.sigma))
            and all(map(isfinite, w.d))
            and all(map(isfinite, w.dprime))
        )
    except (OverflowError, TypeError):
        valid = False
    if not valid:
        message = _bad_field(w)
        if message is not None:
            raise DomainError(message)
    if not w.epsilon > 0:
        raise NonPositiveBudget(f"epsilon must be positive, got {w.epsilon}")
    if w.k < 1:
        raise NonPositiveBudget(f"k must be >= 1, got {w.k}")
    if w.sigma is not None and w.sigma < 0:
        raise NonPositiveBudget(f"sigma must be >= 0, got {w.sigma}")
    for i, (a, b) in enumerate(zip(w.d, w.dprime)):
        if not abs(a - b) <= 1:
            raise SensitivityViolation(i, a - b)
    object.__setattr__(w, "_checked", True)
    return w


# The one encoding of an answer, which per-tape runs emit and every
# distribution key, witness and CLI record reads: BOT_KEY below the
# threshold, TOP_KEY for a classic ``svt`` positive, and ``(branch, gap)``
# for a gap positive, ``branch`` a ``Branch`` value.
BOT_KEY = "bot"
TOP_KEY = "top"


@dataclass(frozen=True)
class OutputSequence:
    """Variable-length sequence of per-query answers in key form."""

    answers: tuple

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator:
        return iter(self.answers)

    def __getitem__(self, i: int):
        return self.answers[i]

    def top_count(self) -> int:
        return len(self.answers) - self.answers.count(BOT_KEY)

    def erase_gaps(self) -> "OutputSequence":
        return OutputSequence(tuple([a if a == BOT_KEY else TOP_KEY for a in self.answers]))

    def canonical(self, gap_ndigits: int | None = None) -> tuple:
        """The answers as a distribution key: each gap rounded to
        ``gap_ndigits`` digits when given (so that float gaps collide
        deterministically), and an integral float gap written as an ``int``."""
        out = []
        for a in self.answers:
            if type(a) is tuple:
                branch, g = a
                if gap_ndigits is not None:
                    g = round(g, gap_ndigits)
                if isinstance(g, float) and g.is_integer():
                    g = int(g)
                a = (branch, g)
            out.append(a)
        return tuple(out)


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution family plus per-role scales (scale b = 1 / epsilon_role).
    ``scales`` is a read-only view of a copy of the mapping given, so a spec
    shared by every caller of a cached budget cannot be changed by one."""

    kind: NoiseKind
    scales: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "kind", NoiseKind(self.kind))  # "laplace" is the member: draw_tape tests identity
        object.__setattr__(self, "scales", MappingProxyType(dict(self.scales)))
        self.layout  # raises LayoutMismatch unless the roles are one layout's
        for role, b in self.scales.items():
            if not b > 0:
                raise NonPositiveBudget(f"scale for role {role!r} must be positive, got {b}")
            if self.kind is NoiseKind.DLAP and _geometric_p(b) == 0.0:
                raise NonPositiveBudget(f"integer noise for role {role!r} cannot be sampled at scale {b}")

    @cached_property
    def layout(self) -> TapeLayout:
        """The layout whose roles, the threshold's included, the scales name."""
        roles = set(self.scales)
        for layout in TapeLayout:
            if roles == {"threshold", *layout.query_roles}:
                return layout
        raise LayoutMismatch(f"unexpected noise roles {sorted(roles)}")


@dataclass(frozen=True, init=False)
class NoiseTape:
    """The randomness a mechanism consumes, stored once as one flat tuple in
    consumption order: the threshold draw, then each query's draws in
    ``layout.query_roles`` order, role j of query i at ``1 + r*i + j`` for r
    roles.  The positional constructor takes the per-query form: scalars for
    the single layout, ``(first, second)`` pairs for the paired one.  Tapes
    are finite; reading past the end raises TapeExhausted, never resamples."""

    _flat: tuple
    layout: TapeLayout

    def __init__(self, threshold_noise, per_query, layout: TapeLayout = TapeLayout.SINGLE):
        per_query = tuple(per_query)
        draws = per_query if layout is _SINGLE else tuple(chain.from_iterable(per_query))
        if len(draws) != len(layout.query_roles) * len(per_query):
            raise LayoutMismatch(f"a {layout.value} tape needs {len(layout.query_roles)} draws per query")
        object.__setattr__(self, "_flat", (threshold_noise, *draws))
        object.__setattr__(self, "layout", layout)

    @classmethod
    def from_flat(cls, flat, layout: TapeLayout) -> "NoiseTape":
        """The tape whose ``flat()`` is ``flat``."""
        tape = object.__new__(cls)
        object.__setattr__(tape, "_flat", tuple(flat))
        object.__setattr__(tape, "layout", layout)
        return tape

    def flat(self) -> tuple:
        """Tape coordinates in consumption order (threshold first)."""
        return self._flat

    @property
    def threshold_noise(self):
        return self._flat[0]

    @property
    def per_query(self) -> tuple:
        """One entry per query: its draw, or its tuple of draws in role order."""
        r = len(self.layout.query_roles)
        flat = self._flat
        return flat[1:] if r == 1 else tuple(zip(*[flat[1 + j :: r] for j in range(r)]))

    def __len__(self) -> int:
        return (len(self._flat) - 1) // len(self.layout.query_roles)

    def shifted_by(self, shift: "NoiseTape") -> "NoiseTape":
        """This tape plus ``shift``, coordinate by coordinate; draws past the
        shift's length stay as they are."""
        if shift.layout is not self.layout:
            raise LayoutMismatch(f"shift has layout {shift.layout.value}, tape has {self.layout.value}")
        flat, moves = self._flat, shift._flat
        if len(flat) < len(moves):
            raise LayoutMismatch(f"tape has {len(self)} entries, shift needs {len(shift)}")
        return NoiseTape.from_flat([*[a + s for a, s in zip(flat, moves)], *flat[len(moves) :]], self.layout)

    def to_json_dict(self) -> dict:
        """The tape as a witness carries it: ``threshold``, ``per_query`` as
        numbers or ``[first, second]`` pairs, and ``layout``."""
        per = self.per_query if len(self.layout.query_roles) == 1 else map(list, self.per_query)
        return {"threshold": self.threshold_noise, "per_query": list(per), "layout": self.layout.value}

    @classmethod
    def from_json_dict(cls, data, layout: TapeLayout, n_queries: int) -> "NoiseTape":
        """Inverse of ``to_json_dict`` for a mechanism of ``layout`` over
        ``n_queries`` queries, for any decoded JSON value.  ``layout`` may be
        left out but must be the mechanism's; every draw must be a finite
        number, and ``per_query`` must cover every query.  Anything else is
        a ``DomainError`` naming the field or entry."""
        if not isinstance(data, dict) or "threshold" not in data or "per_query" not in data:
            raise DomainError("tape file needs fields 'threshold' and 'per_query'")
        unknown = sorted(set(data) - {"threshold", "per_query", "layout"})
        if unknown:
            raise DomainError(f"unknown tape field {unknown[0]!r}")
        if data.get("layout", layout.value) != layout.value:
            raise DomainError(f"tape field 'layout' must be {layout.value!r} for this mechanism, got {data['layout']!r}")
        if not _finite_number(data["threshold"]):
            raise DomainError("tape field 'threshold' must be a finite number")
        per = data["per_query"]
        if not isinstance(per, list) or len(per) < n_queries:
            raise DomainError(f"tape field 'per_query' must list at least {n_queries} entries")
        r = len(layout.query_roles)
        for i, v in enumerate(per):
            if r == 1 and not _finite_number(v):
                raise DomainError(f"tape entry {i} must be a finite number for this mechanism")
            if r > 1 and not (isinstance(v, list) and len(v) == r and all(map(_finite_number, v))):
                raise DomainError(f"tape entry {i} must be a [first, second] pair of finite numbers for this mechanism")
        return cls(data["threshold"], per, layout)


def _finite_number(x) -> bool:
    """A JSON number a tape can hold: not a bool, and finite as a float."""
    return _number(x) and _finite(x)


# ---------------------------------------------------------------------------
# Noise primitives


def _laplace_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(scale) quantile of each u strictly inside (0, 1), evaluated
    branch-wise so both tails stay finite."""
    return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))


def discrete_laplace_pmf(x: np.ndarray, scale: float) -> np.ndarray:
    """P[X = x] for each integer x under the integer Laplace with decay
    exp(-1/scale).

    Mass (1-a)/(1+a) * a^|x| with a = exp(-1/scale); symmetric and sums to 1
    over the integers.
    """
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    alpha = math.exp(-1.0 / scale)
    return (1.0 - alpha) / (1.0 + alpha) * alpha ** np.abs(x)


def discrete_laplace_tail(bound: int, scale: float) -> float:
    """P[|X| > bound]; the geometric tail left outside an enumeration box."""
    if not scale > 0:
        raise DomainError(f"scale must be positive, got {scale}")
    if bound < 0:
        return 1.0
    alpha = math.exp(-1.0 / scale)
    return 2.0 * alpha ** (bound + 1) / (1.0 + alpha)


def discrete_laplace_box(scale: float, tail_tol: float = 1e-12) -> int:
    """Smallest bound whose outside mass is below tail_tol."""
    alpha = math.exp(-1.0 / scale)
    # solve 2 a^(B+1) / (1+a) < tol, then nudge for float slack
    b = max(0, math.ceil(scale * math.log(2.0 / (tail_tol * (1.0 + alpha))) - 1.0))
    while discrete_laplace_tail(b, scale) >= tail_tol:
        b += 1
    return b


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it refuses is a ``DomainError``
    naming the seed, and so is a bool or a sequence holding one, which numpy
    would take as the int 0 or 1."""
    if isinstance(seed, bool) or (isinstance(seed, (tuple, list)) and any(isinstance(s, bool) for s in seed)):
        raise DomainError(f"seed {seed!r} is or holds a bool, not an integer")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as e:
        raise DomainError(f"seed {seed!r} is not one numpy's generators take: {e}") from None


def _uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    # uniform on the open interval (0, 1): 53-bit grid excluding both ends
    return rng.integers(1, 1 << 53, size=size).astype(np.float64) / float(1 << 53)


def _geometric_p(scale: float) -> float:
    # success probability of the two geometrics whose difference is dlap(scale);
    # 0 once exp(-1/scale) rounds to 1
    return 1.0 - math.exp(-1.0 / scale)


def _geometric_rate(scale: float) -> float:
    """Rate r with Geometric(p) = ceil(E / r) for a standard exponential E.

    r = -log1p(-p), the expression numpy's own inversion divides by, so the
    quotients match its draws bit for bit where it inverts (p < 1/3).  Once p
    rounds to 1 the rate is infinite and every geometric is 0, whose
    difference is the 0 that ``Geometric(1) - Geometric(1)`` gives."""
    p = _geometric_p(scale)
    return -math.log1p(-p) if p < 1.0 else math.inf


_DRAW_BLOCK = 1 << 15  # exponentials per pass of _draw: one 256 KiB float64 buffer


def _draw(rng: np.random.Generator, kind: NoiseKind, scale: float, size: int | tuple[int, ...]) -> np.ndarray:
    """``size`` iid draws (an int or a shape) of the noise ``kind`` at ``scale``.

    Laplace noise is the inverse CDF of open uniforms.  Integer-Laplace noise
    is the difference of two iid geometrics, each ``ceil(E / rate)`` of a
    standard exponential E: all first geometrics, then all second ones, in
    the order ``rng.geometric(p, size) - rng.geometric(p, size)`` would take
    them, and equal to those draws where numpy inverts too (scale above
    1 / ln 1.5).  The int64 result is filled ``_DRAW_BLOCK`` exponentials
    at a time, so no float temporary of the result's size is made."""
    if kind is NoiseKind.LAPLACE:
        return _laplace_from_uniform(_uniform_open(rng, size), scale)
    rate = _geometric_rate(scale)
    out = np.empty(size, dtype=np.int64)
    flat = out.reshape(-1)
    n = flat.size
    buf = np.empty(min(n, _DRAW_BLOCK))
    for second in (False, True):
        for lo in range(0, n, _DRAW_BLOCK):
            e = buf[: min(_DRAW_BLOCK, n - lo)]
            rng.standard_exponential(out=e)
            e /= rate
            np.ceil(e, out=e)
            dst = flat[lo : lo + len(e)]
            if second:
                np.subtract(dst, e, out=dst, dtype=np.int64, casting="unsafe")
            else:
                dst[...] = e
    return out


def draw_tape(spec: NoiseSpec, length: int, rng: np.random.Generator) -> NoiseTape:
    """Draw a tape of ``length`` queries from an existing generator, each
    role at its own scale.

    The values are those of one ``_draw`` call per role in consumption order
    (threshold, then each query role), converted to Python ``float`` or
    ``int``.  The calls are merged because each uniform and each exponential
    variate is its own draw from the generator's stream: one uniform block
    for all Laplace roles, one standard-exponential block for all discrete
    roles, both halves of each role in turn, each geometric ``math.ceil(E /
    rate)`` as in ``_draw``.  The tape layout is the one the spec's roles
    imply."""
    if length < 1:
        raise DomainError(f"tape length must be >= 1, got {length}")
    layout = spec.layout
    scales = spec.scales
    query_roles = layout.query_roles
    if spec.kind is NoiseKind.LAPLACE:
        per_value = [scales["threshold"]]
        for role in query_roles:
            per_value += [scales[role]] * length
        u = _uniform_open(rng, len(per_value))
        values = _laplace_from_uniform(u, np.array(per_value)).tolist()
    else:
        e = rng.standard_exponential(2 * (1 + len(query_roles) * length)).tolist()
        values = []
        lo = 0
        ceil = math.ceil
        for role, size in (("threshold", 1), *((role, length) for role in query_roles)):
            rate = _geometric_rate(scales[role])
            first, second = e[lo : lo + size], e[lo + size : lo + 2 * size]
            values += [ceil(a / rate) - ceil(b / rate) for a, b in zip(first, second)]
            lo += 2 * size
    # drawn role by role, held query by query: role j of query i at 1 + r*i + j
    r = len(query_roles)
    flat = values[:1] * len(values)
    for j in range(r):
        flat[1 + j :: r] = values[1 + j * length : 1 + (j + 1) * length]
    return NoiseTape.from_flat(flat, layout)
