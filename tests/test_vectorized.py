"""The array kernels must agree with the per-tape mechanisms everywhere:
exhaustively on small integer boxes, and on sampled real-valued tapes.
Everything the enumeration and Monte Carlo oracles report rests on this."""

import itertools

import numpy as np
import pytest

from gapsvt import (
    ADAPTIVE_GAP,
    MECHANISMS,
    NoiseTape,
    SVT_CLASSIC,
    SVT_GAP,
    Side,
    TapeLayout,
    Workload,
    budget_split_adaptive,
    default_budget,
    run_mechanism,
)
from gapsvt.vectorized import (
    STATUS_TOP,
    canonical_rows,
    decode_row,
    encode_int_rows,
    key_groups,
    run_status_gaps,
)

WORKLOADS = {
    SVT_GAP: [
        Workload.from_values([(1, 0)], 0, 1, 1.0),
        Workload.from_values([(1, 0), (0, 1)], 0, 1, 1.0),
        Workload.from_values([(2, 1), (1, 2)], 1, 2, 2.0),
        Workload.from_values([(0, 1), (3, 2), (1, 1)], 1, 2, 1.0),
    ],
    SVT_CLASSIC: [
        Workload.from_values([(1, 0)], 0, 1, 1.0),
        Workload.from_values([(1, 0), (0, 1)], 0, 2, 1.0),
    ],
    ADAPTIVE_GAP: [
        Workload.from_values([(1, 0)], 0, 1, 1.0, sigma=1),
        Workload.from_values([(2, 1), (0, 1)], 1, 1, 1.0, sigma=0),
        Workload.from_values([(1, 0), (1, 1)], 0, 2, 2.0, sigma=2),
    ],
}


def batch_canonical(mechanism, w, side, budget, eta0, per_query):
    status, gaps = run_status_gaps(mechanism, w, side, budget, eta0, per_query)
    return canonical_rows(mechanism, status, gaps)


def per_tape_canonical(mechanism, w, side, budget, tapes):
    out = []
    for tape in tapes:
        res = run_mechanism(mechanism, w, tape, side, budget)
        out.append(res.output.canonical())
    return out


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("side", [Side.D, Side.DPRIME])
def test_exhaustive_small_box_agreement(mechanism, side):
    bound = 3
    rng = range(-bound, bound + 1)
    for w in WORKLOADS[mechanism]:
        budget = default_budget(mechanism, w)
        n = len(w)
        if mechanism == ADAPTIVE_GAP:
            combos = list(itertools.product(rng, repeat=1 + 2 * n))
            eta0 = np.array([c[0] for c in combos], dtype=np.int64)
            xis = np.array([[c[1 + 2 * i] for i in range(n)] for c in combos], dtype=np.int64)
            etas = np.array([[c[2 + 2 * i] for i in range(n)] for c in combos], dtype=np.int64)
            draws = (xis, etas)
            tapes = [
                NoiseTape(c[0], tuple((c[1 + 2 * i], c[2 + 2 * i]) for i in range(n)), TapeLayout.PAIRED)
                for c in combos
            ]
        else:
            combos = list(itertools.product(rng, repeat=1 + n))
            eta0 = np.array([c[0] for c in combos], dtype=np.int64)
            draws = (np.array([list(c[1:]) for c in combos], dtype=np.int64),)
            tapes = [NoiseTape(c[0], tuple(c[1:])) for c in combos]
        status, gaps = run_status_gaps(mechanism, w, side, budget, eta0, draws)
        outputs = [run_mechanism(mechanism, w, tape, side, budget).output for tape in tapes]
        want = [out.canonical() for out in outputs]
        assert canonical_rows(mechanism, status, gaps) == want
        # per-tape runs emit each answer in key form already, as the decoded code rows are
        decoded = [decode_row(mechanism, row) for row in encode_int_rows(mechanism, status, gaps).tolist()]
        assert [out.answers for out in outputs] == want == decoded


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_sampled_real_tapes_agreement(mechanism):
    rng = np.random.default_rng(99)
    for w in WORKLOADS[mechanism]:
        # real-valued twin of the workload, keeping |delta| <= 1
        pairs = [(v + 0.25, v + 0.25 - (delta * 0.9 + 0.05)) for v, delta in zip(w.d, w.deltas())]
        wr = Workload.from_values(pairs, w.threshold + 0.1, w.k, w.epsilon, w.sigma)
        budget = default_budget(mechanism, wr)
        n = len(wr)
        rows = 2000
        eta0 = rng.normal(0, 2, size=rows)
        if mechanism == ADAPTIVE_GAP:
            xis = rng.normal(0, 3, size=(rows, n))
            etas = rng.normal(0, 2, size=(rows, n))
            got = batch_canonical(mechanism, wr, Side.D, budget, eta0, (xis, etas))
            tapes = [
                NoiseTape(eta0[r], tuple((xis[r, i], etas[r, i]) for i in range(n)), TapeLayout.PAIRED)
                for r in range(rows)
            ]
        else:
            etaq = rng.normal(0, 2, size=(rows, n))
            got = batch_canonical(mechanism, wr, Side.D, budget, eta0, (etaq,))
            tapes = [NoiseTape(eta0[r], tuple(etaq[r])) for r in range(rows)]
        want = [run_mechanism(mechanism, wr, t, Side.D, budget).output.canonical() for t in tapes]
        assert got == want


def test_encode_decode_round_trip():
    w = Workload.from_values([(1, 0), (0, 1)], 0, 2, 1.0)
    budget = default_budget(SVT_GAP, w)
    rng = range(-2, 3)
    combos = list(itertools.product(rng, repeat=3))
    eta0 = np.array([c[0] for c in combos], dtype=np.int64)
    etaq = np.array([list(c[1:]) for c in combos], dtype=np.int64)
    status, gaps = run_status_gaps(SVT_GAP, w, Side.D, budget, eta0, (etaq,))
    codes = encode_int_rows(SVT_GAP, status, gaps)
    keys = [decode_row(SVT_GAP, row) for row in codes]
    tapes = [NoiseTape(c[0], tuple(c[1:])) for c in combos]
    want = per_tape_canonical(SVT_GAP, w, Side.D, budget, tapes)
    assert keys == want


def test_encode_rejects_fractional_gaps():
    w = Workload.from_values([(1, 0)], 0.5, 1, 1.0)
    budget = default_budget(SVT_GAP, w)
    status, gaps = run_status_gaps(SVT_GAP, w, Side.D, budget, np.zeros(1), (np.ones((1, 1)),))
    with pytest.raises(ValueError):
        encode_int_rows(SVT_GAP, status, gaps)


_I64 = np.iinfo(np.int64)


def _span_keys(n, span, start=0, seed=0):
    """``n`` keys in ``[start, start + span)`` holding both ends, with repeats."""
    keys = np.random.default_rng(seed).integers(0, span, size=n)
    keys[:2] = 0, span - 1
    return keys.astype(np.int64) + start


# name: (keys, path), the dense table at a span of at most twice the count
_KEY_GROUP_CASES = {
    "empty": (np.array([], dtype=np.int64), "sort"),
    "single key": (np.array([-3], dtype=np.int64), "dense"),
    "span 2 len": (_span_keys(50, 100), "dense"),
    "span 2 len + 1": (_span_keys(50, 101), "sort"),
    "negative dense": (_span_keys(40, 60, start=-75, seed=1), "dense"),
    "negative sparse": (_span_keys(40, 10**12, start=-(10**13), seed=2), "sort"),
    "next to the int64 maximum": (_span_keys(30, 20, start=_I64.max - 19, seed=3), "dense"),
    "next to the int64 minimum": (_span_keys(30, 20, start=_I64.min, seed=4), "dense"),
    "the whole int64 range": (
        np.concatenate([[_I64.min, _I64.max, 0, _I64.min, -1, _I64.max], np.random.default_rng(5).integers(_I64.min, _I64.max, 40)]),
        "sort",
    ),
}


@pytest.mark.parametrize("name", list(_KEY_GROUP_CASES))
def test_key_groups_equals_unique(name, monkeypatch):
    keys, path = _KEY_GROUP_CASES[name]
    given = keys.copy()
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **kw: searches.append(1) or search(*a, **kw))
    inverse, rows = key_groups(keys)
    assert ("sort" if searches else "dense") == path
    monkeypatch.undo()
    uniq, want = np.unique(keys, return_inverse=True)
    assert inverse.dtype == rows.dtype == np.int64
    assert inverse.tolist() == want.tolist()
    assert keys[rows].tolist() == uniq.tolist()
    assert np.array_equal(keys, given)


def test_adaptive_guard_table_matches_ledger_boundary():
    # three expensive answers with k=2 stop exactly where the per-tape run does
    w = Workload.from_values([(5, 5)] * 3, 4, 2, 1.0, sigma=2)
    budget = budget_split_adaptive(1.0, 2)
    eta0 = np.zeros(1, dtype=np.int64)
    xis = np.zeros((1, 3), dtype=np.int64)
    etas = np.zeros((1, 3), dtype=np.int64)
    got = batch_canonical(ADAPTIVE_GAP, w, Side.D, budget, eta0, (xis, etas))
    tape = NoiseTape(0, ((0, 0), (0, 0), (0, 0)), TapeLayout.PAIRED)
    want = run_mechanism(ADAPTIVE_GAP, w, tape, Side.D, budget).output.canonical()
    assert got == [want]
    assert len(want) == 2  # second answer hits the guard


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sampled_integer_tapes_at_five_queries(mechanism, k):
    """Five queries take the run state through several steps: the plain
    variants stop at their k-th positive, and the adaptive guard stops runs
    after mixed first- and second-branch positives (k = 2 and 3).  The plain
    variants' workload carries a sigma, which they must not read."""
    sigma = 2 if mechanism == ADAPTIVE_GAP else 3
    w = Workload.from_values([(1, 0), (0, 1), (1, 1), (0, 0), (2, 1)], 0, k, 1.0, sigma=sigma)
    budget = default_budget(mechanism, w)
    layout = budget.layout
    rng = np.random.default_rng(500 + k)
    rows = 3000
    eta0 = rng.integers(-3, 4, size=rows)
    draws = tuple(rng.integers(-6, 7, size=(rows, 5)) for _ in layout.query_roles)
    got = batch_canonical(mechanism, w, Side.D, budget, eta0, draws)
    columns = [[d[r].tolist() for d in draws] for r in range(rows)]  # per row, one draw list per role
    tapes = [NoiseTape(int(eta0[r]), c[0] if len(c) == 1 else zip(*c), layout) for r, c in enumerate(columns)]
    want = per_tape_canonical(mechanism, w, Side.D, budget, tapes)
    assert got == want
    stopped = [key for key in want if len(key) < 5]
    assert stopped
    if mechanism == ADAPTIVE_GAP and k > 1:
        branches = [{a[0] for a in key if a != "bot"} for key in stopped]
        assert {"first", "second"} in branches


def _kernel_inputs(mechanism, rows, dtype, rng):
    """Per-query draws for ``rows`` tapes of a 3-query workload, one array
    per query role."""
    if dtype == np.int64:
        draw = lambda: rng.integers(-4, 5, size=(rows, 3))  # noqa: E731
    else:
        draw = lambda: rng.normal(0, 2, size=(rows, 3))  # noqa: E731
    return (draw(), draw()) if mechanism == ADAPTIVE_GAP else (draw(),)


_KERNEL_CASES = [
    (SVT_GAP, Workload.from_values([(0, 1), (3, 2), (1, 1)], 1, 2, 1.0)),
    (ADAPTIVE_GAP, Workload.from_values([(0, 1), (3, 2), (1, 1)], 1, 2, 1.0, sigma=1)),
]


@pytest.mark.parametrize("mechanism, w", _KERNEL_CASES)
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_scalar_threshold_draw_equals_broadcast_array(mechanism, w, dtype):
    rng = np.random.default_rng(17)
    budget = default_budget(mechanism, w)
    per_query = _kernel_inputs(mechanism, 500, dtype, rng)
    for eta0 in (dtype(-2), dtype(0), dtype(3)):
        scalar = run_status_gaps(mechanism, w, Side.D, budget, eta0, per_query)
        array = run_status_gaps(mechanism, w, Side.D, budget, np.full(500, eta0), per_query)
        for got, want in zip(scalar, array):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("mechanism, w", _KERNEL_CASES)
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_gaps_are_zero_below_top(mechanism, w, dtype):
    # encode_int_rows adds 4 * gaps without a mask and relies on this
    rng = np.random.default_rng(18)
    budget = default_budget(mechanism, w)
    eta0 = rng.integers(-4, 5, size=2000).astype(dtype)
    status, gaps = run_status_gaps(mechanism, w, Side.D, budget, eta0, _kernel_inputs(mechanism, 2000, dtype, rng))
    below = status < STATUS_TOP
    assert below.any() and (~below).any()
    assert np.all(gaps[below] == 0)
    assert np.any(gaps[~below] != 0)


def _round_reference(mechanism, status, gaps, ndigits):
    """canonical_rows spelled out one row at a time: ``round(g, ndigits)``,
    then ``int`` when the rounded gap is integral."""
    names = {STATUS_TOP: "plain" if mechanism == SVT_GAP else "first", STATUS_TOP + 1: "second"}
    out = []
    for srow, grow in zip(status.tolist(), gaps.tolist()):
        key = []
        for s, g in zip(srow, grow):
            if s == 0:
                break
            if s < STATUS_TOP:
                key.append("bot")
            elif mechanism == SVT_CLASSIC:
                key.append("top")
            else:
                if ndigits is not None:
                    g = round(g, ndigits)
                key.append((names[s], int(g) if isinstance(g, float) and g.is_integer() else g))
        out.append(tuple(key))
    return out


def _adversarial_gaps(rng, size):
    """Float gaps on which rounding ``g * 1e9`` in numpy could go wrong, and
    the special values, which come first."""
    edge = 2.0**52 / 1e9
    special = [0.0, -0.0, 0.0009765625, -0.0009765625, 5e-10, 1.5e-9, 2.5e-9, 1.2e8, 1.2e8 + 0.3, -1.2e8 - 0.7]
    special += [edge, -edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf), np.inf, np.nan]
    ties = (2 * rng.integers(-(1 << 20), 1 << 20, size) + 1) * 2.0**-10  # g * 1e9 is exactly m + 0.5
    scaled_ties = rng.integers(-(1 << 40), 1 << 40, size) + 0.5
    integral = rng.integers(-(10**6), 10**6, size).astype(np.float64)
    rest = np.concatenate([
        ties,
        np.nextafter(ties, np.inf),
        np.nextafter(ties, -np.inf),
        scaled_ties / 1e9,
        np.nextafter(scaled_ties, np.inf) / 1e9,  # 1 ulp either side of a tie after scaling
        np.nextafter(scaled_ties, -np.inf) / 1e9,
        rng.uniform(-1, 1, size) * 2.0 ** rng.integers(22, 70, size),  # |g * 1e9| >= 2^52 from 2^22.1 up
        integral,
        integral + 4e-10,  # rounds to an integral gap
        rng.standard_normal(size) * 10.0 ** rng.integers(-12, 4, size),
    ])
    rng.shuffle(rest)
    return np.concatenate([special, rest]), len(special)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("ndigits", [9, 3, 0, None, -2, 25])
def test_canonical_rows_rounds_like_round_per_row(mechanism, ndigits):
    rng = np.random.default_rng(23)
    g, n_special = _adversarial_gaps(rng, 3000)
    gaps = np.asfortranarray(g[: len(g) // 4 * 4].reshape(-1, 4))
    status = rng.integers(0, 4 if mechanism == ADAPTIVE_GAP else 3, size=gaps.shape).astype(np.uint8)
    status.ravel()[:n_special] = STATUS_TOP  # every special value is released
    gaps[status < STATUS_TOP] = 0  # the kernels' contract
    got = canonical_rows(mechanism, status, gaps, gap_ndigits=ndigits)
    want = _round_reference(mechanism, status, gaps, ndigits)
    assert len(got) == len(status)
    assert [repr(k) for k in got] == [repr(k) for k in want]
    # integer gaps, as integer tapes give them
    int_gaps = np.where(status >= STATUS_TOP, rng.integers(-(10**6), 10**6, size=gaps.shape), 0)
    got = canonical_rows(mechanism, status, int_gaps, gap_ndigits=ndigits)
    assert [repr(k) for k in got] == [repr(k) for k in _round_reference(mechanism, status, int_gaps, ndigits)]
