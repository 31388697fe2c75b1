import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gapsvt import (
    DomainError,
    EmptyWorkload,
    NoiseKind,
    NoiseSpec,
    NoiseTape,
    NonPositiveBudget,
    LayoutMismatch,
    SensitivityViolation,
    Side,
    TapeLayout,
    Workload,
)
from gapsvt.core import (
    _draw,
    _laplace_from_uniform,
    check_workload,
    discrete_laplace_box,
    discrete_laplace_pmf,
    discrete_laplace_tail,
    draw_tape,
)


def sample_tape(spec, length, seed):
    """A tape drawn from a fresh generator seeded with ``seed``."""
    return draw_tape(spec, length, np.random.default_rng(seed))


def single_spec(threshold_scale=1.0, query_scale=1.0, kind=NoiseKind.LAPLACE):
    return NoiseSpec(kind, {"threshold": threshold_scale, "query": query_scale})


def paired_spec(kind=NoiseKind.LAPLACE):
    return NoiseSpec(kind, {"threshold": 1.0, "query_first": 2.0, "query_second": 1.0})


class TestCheckWorkload:
    def test_accepts_sensitivity_one(self):
        w = Workload.from_values([(5, 4), (3, 3)], 4, 1, 1.0)
        assert check_workload(w) is w

    def test_rejects_sensitivity_violation_with_index(self):
        w = Workload.from_values([(5, 3)], 4, 1, 1.0)
        with pytest.raises(SensitivityViolation) as exc:
            check_workload(w)
        assert exc.value.index == 0

    def test_names_first_violating_index(self):
        w = Workload.from_values([(1, 1), (2, 2), (9, 4)], 4, 1, 1.0)
        with pytest.raises(SensitivityViolation) as exc:
            check_workload(w)
        assert exc.value.index == 2

    def test_empty_workload(self):
        with pytest.raises(EmptyWorkload):
            check_workload(Workload((), (), 4, 1, 1.0))

    def test_nonpositive_epsilon(self):
        with pytest.raises(NonPositiveBudget):
            check_workload(Workload.from_values([(1, 1)], 0, 1, 0.0))

    @pytest.mark.parametrize(
        "w, field",
        [
            (Workload.from_values([(1, 1)], math.nan, 1, 1.0), "threshold"),
            (Workload.from_values([(1, 1)], 0, 1, math.inf), "epsilon"),
            (Workload.from_values([(1, 1)], 0, 1, math.nan), "epsilon"),
            (Workload.from_values([(1, 1)], 0, 1, 1.0, sigma=math.nan), "sigma"),
            (Workload.from_values([(1, 1), (math.inf, math.inf)], 0, 1, 1.0), "pairs[1][0]"),
            (Workload.from_values([(1, math.nan)], 0, 1, 1.0), "pairs[0][1]"),
            (Workload.from_values([(10**400, 10**400)], 0, 1, 1.0), "pairs[0][0]"),
            (Workload.from_values([(1, 1)], None, 1, 1.0), "threshold"),
            (Workload.from_values([(1, 1)], 0, 1, None), "epsilon"),
            (Workload.from_values([(1, 1)], "0", 1, 1.0), "threshold"),
            (Workload.from_values([(1, 1)], 0, 1, 1.0, sigma="2"), "sigma"),
            (Workload.from_values([(1, 1), (1, "1")], 0, 1, 1.0), "pairs[1][1]"),
            (Workload.from_values([(1, 1)], 0, "1", 1.0), "k"),
            (Workload.from_values([(1, 1)], 0, math.nan, 1.0), "k"),
            (Workload.from_values([(True, False)], False, 1, True, sigma=True), "threshold"),
            (Workload.from_values([(1, 1)], 0, 1, True), "epsilon"),
            (Workload.from_values([(1, 1)], 0, 1, 1.0, sigma=False), "sigma"),
            (Workload.from_values([(False, 0)], 0, 1, 1.0), "pairs[0][0]"),
            (Workload.from_values([(1, 1), (1, True)], 0, 1, 1.0), "pairs[1][1]"),
        ],
    )
    def test_non_finite_number_named(self, w, field):
        with pytest.raises(DomainError, match=re.escape(repr(field))):
            check_workload(w)
        with pytest.raises(DomainError, match=re.escape(repr(field))):
            Workload.from_json_dict(w.to_json_dict())

    def test_bad_k_and_sigma(self):
        with pytest.raises(NonPositiveBudget):
            check_workload(Workload.from_values([(1, 1)], 0, 0, 1.0))
        for k in (1.5, 2.0, True, np.float64(2)):
            with pytest.raises(DomainError, match="'k' must be an integer"):
                check_workload(Workload.from_values([(1, 0)] * 4, -50, k, 1.0))
        assert check_workload(Workload.from_values([(1, 1)], 0, np.int64(2), 1.0)).k == 2
        for k in (1.5, True, "2"):
            with pytest.raises(DomainError, match="'k' must be an integer"):
                Workload.from_json_dict({"pairs": [[1, 0]], "threshold": 0, "k": k, "epsilon": 1.0})
        with pytest.raises(NonPositiveBudget):
            check_workload(Workload.from_values([(1, 1)], 0, 1, 1.0, sigma=-0.5))


class TestNoiseSpec:
    def test_rejects_roles_of_neither_layout(self):
        with pytest.raises(LayoutMismatch):
            NoiseSpec(NoiseKind.LAPLACE, {"threshold": 1.0, "query_first": 1.0})

    def test_integer_noise_too_wide_to_sample_names_the_role(self):
        # exp(-1/scale) rounds to 1, so the geometric draws would get p = 0
        scales = {"threshold": 1.0, "query": 4e300}
        with pytest.raises(NonPositiveBudget, match="'query'"):
            NoiseSpec(NoiseKind.DLAP, scales)
        assert NoiseSpec(NoiseKind.LAPLACE, scales).scales == scales

    def test_scales_are_a_read_only_copy(self):
        scales = {"threshold": 1.0, "query": 2.0}
        spec = NoiseSpec(NoiseKind.LAPLACE, scales)
        scales["query"] = 99.0
        assert spec.scales["query"] == 2.0
        with pytest.raises(TypeError):
            spec.scales["query"] = 99.0

    def test_kind_given_by_value_is_the_member(self):
        """A spec stores its kind as the member, which draw_tape's identity
        tests need: "laplace" given as a string draws Laplace noise."""
        spec = NoiseSpec("laplace", {"threshold": 1.0, "query": 1.0})
        assert spec.kind is NoiseKind.LAPLACE
        assert not all(isinstance(x, int) for x in draw_tape(spec, 3, np.random.default_rng(0)).flat())
        with pytest.raises(ValueError, match="gauss"):
            NoiseSpec("gauss", {"threshold": 1.0, "query": 1.0})


class TestSampleTape:
    def test_deterministic(self):
        spec = single_spec(2.0, 3.0)
        t1 = sample_tape(spec, 10, seed=123)
        t2 = sample_tape(spec, 10, seed=123)
        assert t1 == t2

    def test_distinct_seeds_differ(self):
        spec = single_spec()
        t1 = sample_tape(spec, 10, seed=1)
        t2 = sample_tape(spec, 10, seed=2)
        assert t1 != t2

    def test_layout_follows_roles(self):
        assert sample_tape(single_spec(), 5, seed=0).layout is TapeLayout.SINGLE
        assert sample_tape(paired_spec(), 5, seed=0).layout is TapeLayout.PAIRED

    def test_paired_structure(self):
        tape = sample_tape(paired_spec(), 4, seed=5)
        assert len(tape.per_query) == 4
        assert all(len(entry) == 2 for entry in tape.per_query)

    def test_length_precondition(self):
        with pytest.raises(DomainError):
            sample_tape(single_spec(), 0, seed=0)

    def test_mean_absolute_draw_matches_scale(self):
        # E|X| = b for Laplace(b); Var|X| = b^2, so SE = b / sqrt(N)
        b = 2.0
        n = 10**6
        tape = sample_tape(single_spec(1.0, b), n, seed=99)
        draws = np.asarray(tape.per_query)
        se = b / math.sqrt(n)
        assert abs(np.abs(draws).mean() - b) < 3 * se

    def test_discrete_tapes_are_integers(self):
        tape = sample_tape(single_spec(2.0, 2.0, NoiseKind.DLAP), 50, seed=3)
        assert isinstance(tape.threshold_noise, int)
        assert all(isinstance(v, int) for v in tape.per_query)


class TestDrawTapeStream:
    """draw_tape gives the values of one _draw call per role, in consumption
    order (threshold, then each query role), on the same generator."""

    @staticmethod
    def reference(spec, layout, length, rng):
        convert = int if spec.kind is NoiseKind.DLAP else float
        roles = ("query",) if layout is TapeLayout.SINGLE else ("query_first", "query_second")
        eta0 = convert(_draw(rng, spec.kind, spec.scales["threshold"], 1)[0])
        columns = [[convert(v) for v in _draw(rng, spec.kind, spec.scales[r], length)] for r in roles]
        per = tuple(columns[0]) if layout is TapeLayout.SINGLE else tuple(zip(*columns))
        return NoiseTape(eta0, per, layout)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("layout", list(TapeLayout))
    def test_matches_role_by_role_draws(self, kind, layout):
        for seed in range(40):
            length = 1 + seed % 6
            spec = single_spec(0.7, 2.5, kind) if layout is TapeLayout.SINGLE else paired_spec(kind)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            tape = draw_tape(spec, length, rng)
            assert tape == self.reference(spec, layout, length, ref_rng)
            values = tape.flat()
            assert len(values) == 1 + length * (1 if layout is TapeLayout.SINGLE else 2)
            assert NoiseTape.from_flat(values, layout) == tape
            expected_type = int if kind is NoiseKind.DLAP else float
            assert all(type(v) is expected_type for v in values)
            # both generators are left at the same point of the stream
            assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)


class TestIntegerLaplaceDraw:
    """_draw's integer noise: geometrics by exponential inversion, in blocks."""

    @pytest.mark.parametrize("size", [1, 7, (3, 5), (1 << 15) + 3, ((1 << 14) + 1, 3)])
    @pytest.mark.parametrize("scale", [2.5, 4.0, 8.0, 100.0])
    def test_equals_numpy_geometrics_where_numpy_inverts(self, scale, size):
        # p < 1/3 here, where numpy draws a geometric as ceil(E / -log1p(-p))
        p = 1.0 - math.exp(-1.0 / scale)
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        got = _draw(rng, NoiseKind.DLAP, scale, size)
        want = ref_rng.geometric(p, size) - ref_rng.geometric(p, size)
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 2.0])
    def test_law_where_numpy_would_search(self, scale):
        # TV distance to the pmf over the box's integers plus one bucket for
        # the rest.  E|p_hat - p| <= sqrt(p (1 - p) / n) for each bucket, and
        # one sample moves the TV by at most 1/n, so by McDiarmid the TV
        # exceeds the summed mean bound by t with probability exp(-2 n t^2).
        n = 200_000
        draws = _draw(np.random.default_rng(2024), NoiseKind.DLAP, scale, n)
        box = discrete_laplace_box(scale)
        xs = np.arange(-box, box + 1)
        counts = np.bincount(np.clip(draws, -box - 1, box + 1) + box + 1, minlength=2 * box + 3)
        inside = counts[1:-1] / n
        outside = (counts[0] + counts[-1]) / n
        pmf = np.array([discrete_laplace_pmf(int(x), scale) for x in xs])
        tail = discrete_laplace_tail(box, scale)
        tv = 0.5 * (np.abs(inside - pmf).sum() + abs(outside - tail))
        mean_bound = 0.5 * (np.sqrt(pmf * (1 - pmf) / n).sum() + math.sqrt(tail * (1 - tail) / n))
        t = math.sqrt(math.log(1e9) / (2 * n))
        assert tv < mean_bound + t

    def test_result_is_filled_without_a_full_size_temporary(self):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            out = _draw(rng, NoiseKind.DLAP, 4.0, (1 << 20, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (1 << 20)

    def test_size_zero_is_an_empty_int64_array(self):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for size in (0, (0, 3)):
            out = _draw(rng, NoiseKind.DLAP, 4.0, size)
            assert out.dtype == np.int64 and out.shape == np.empty(size).shape
        assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)

    def test_noise_is_zero_where_p_rounds_to_one(self):
        # scale 1/40: 1 - exp(-40) rounds to p = 1, and the noise is
        # Geometric(1) - Geometric(1) = 0
        scale = 1 / 40
        assert 1.0 - math.exp(-1.0 / scale) == 1.0
        assert not _draw(np.random.default_rng(1), NoiseKind.DLAP, scale, 100).any()
        tape = draw_tape(single_spec(scale, scale, NoiseKind.DLAP), 5, np.random.default_rng(1))
        assert tape.flat() == (0,) * 6


class TestLaplaceFromUniform:
    """The Laplace quantile every continuous draw goes through."""

    @staticmethod
    def quantile(u, scale):
        return float(_laplace_from_uniform(np.array(u), scale))

    def test_median_is_zero(self):
        assert self.quantile(0.5, 1.0) == 0.0

    def test_upper_quartile(self):
        assert self.quantile(0.75, 1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_lower_quartile_scale_two(self):
        assert self.quantile(0.25, 2.0) == pytest.approx(-2 * math.log(2), abs=1e-12)

    @given(
        u1=st.floats(min_value=1e-9, max_value=1 - 1e-9),
        u2=st.floats(min_value=1e-9, max_value=1 - 1e-9),
        scale=st.floats(min_value=0.01, max_value=100),
    )
    def test_strictly_increasing(self, u1, u2, scale):
        if abs(u1 - u2) < 1e-9:
            return
        lo, hi = min(u1, u2), max(u1, u2)
        assert self.quantile(lo, scale) < self.quantile(hi, scale)

    def test_tails_stay_finite(self):
        u = np.array([5e-324, 1e-300, 2.0**-53, 1.0 - 2.0**-53])
        x = _laplace_from_uniform(u, 1.0)
        assert np.isfinite(x).all()
        assert (x[:3] < 0).all() and x[3] > 0
        assert x[2] == -x[3]  # 2^-53 and 1 - 2^-53 are both exact

    def test_per_value_scales(self):
        u = np.array([0.1, 0.5, 0.75, 0.9])
        scales = np.array([0.5, 1.0, 2.0, 4.0])
        got = _laplace_from_uniform(u, scales)
        assert got.tolist() == [self.quantile(ui, s) for ui, s in zip(u.tolist(), scales.tolist())]


class TestDiscreteLaplacePmf:
    def test_value_at_zero(self):
        # (1 - e^-1) / (1 + e^-1)
        expected = (1 - math.exp(-1)) / (1 + math.exp(-1))
        assert discrete_laplace_pmf(0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.462117, abs=1e-6)

    @given(x=st.integers(min_value=-10**6, max_value=10**6), scale=st.floats(min_value=0.05, max_value=50))
    def test_symmetry(self, x, scale):
        assert discrete_laplace_pmf(x, scale) == discrete_laplace_pmf(-x, scale)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_truncated_sum_plus_tail_is_one(self, scale):
        bound = int(40 * scale)
        total = sum(discrete_laplace_pmf(x, scale) for x in range(-bound, bound + 1))
        assert abs(total - 1.0) < 1e-12
        assert abs(total + discrete_laplace_tail(bound, scale) - 1.0) < 1e-13

    def test_tail_matches_brute_sum(self):
        scale = 1.5
        bound = 10
        brute = sum(discrete_laplace_pmf(x, scale) for x in range(bound + 1, bound + 400))
        assert discrete_laplace_tail(bound, scale) == pytest.approx(2 * brute, rel=1e-9)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0, 8.0])
    def test_enumeration_axis_masses(self, scale):
        """The exact oracle's axis reads its masses from this pmf, with the
        same float expression it used inline, so they stay bit for bit."""
        from gapsvt.verifier import _make_axis

        axis = _make_axis(scale, 12)
        alpha = math.exp(-1.0 / scale)
        assert axis.values.tolist() == list(range(-12, 13))
        assert axis.pmf.tolist() == ((1.0 - alpha) / (1.0 + alpha) * alpha ** np.abs(axis.values)).tolist()
        assert axis.tail == discrete_laplace_tail(12, scale)

    @pytest.mark.parametrize("scale,tol", [(0.5, 1e-12), (2.0, 1e-12), (8.0, 1e-9)])
    def test_box_sizing_is_minimal(self, scale, tol):
        b = discrete_laplace_box(scale, tol)
        assert discrete_laplace_tail(b, scale) < tol
        assert b == 0 or discrete_laplace_tail(b - 1, scale) >= tol


def test_flat_order():
    paired = NoiseTape(9.0, ((1.0, 2.0), (3.0, 4.0)), TapeLayout.PAIRED)
    assert paired.flat() == (9.0, 1.0, 2.0, 3.0, 4.0)


def test_tape_stores_one_flat_tuple_and_reads_back_per_query():
    paired = NoiseTape(9.0, ((1.0, 2.0), (3.0, 4.0)), TapeLayout.PAIRED)
    assert paired.flat() is paired.flat()
    assert paired.threshold_noise == 9.0 and paired.per_query == ((1.0, 2.0), (3.0, 4.0))
    assert len(paired) == 2 and NoiseTape.from_flat(paired.flat(), TapeLayout.PAIRED) == paired
    single = NoiseTape(0, [1, 2, 3])
    assert single.per_query == (1, 2, 3) and len(single) == 3


@pytest.mark.parametrize("per_query", [((1.0, 2.0, 3.0),), ((1.0, 2.0), (3.0,))])
def test_paired_entries_must_hold_two_draws(per_query):
    with pytest.raises(LayoutMismatch):
        NoiseTape(0.0, per_query, TapeLayout.PAIRED)


def test_workload_stores_one_value_tuple_per_side():
    w = Workload.from_values([(5, 4), (3, 3), (7, 8)], 4, 1, 1.0)
    assert w.d == (5, 3, 7) and w.dprime == (4, 3, 8)
    assert w.values(Side.D) is w.d and w.values(Side.DPRIME) is w.dprime
    for side in ("d", "dprime", 0):
        with pytest.raises(DomainError, match=f"side must be a Side, got {side!r}"):
            w.values(side)
    assert w.deltas() == (1, 0, -1)
    s = w.swapped()
    assert (s.d, s.dprime) == (w.dprime, w.d) and s.deltas() == (-1, 0, 1)


def test_workload_sides_of_different_lengths_are_rejected():
    with pytest.raises(DomainError, match="sides hold 2 and 1 values"):
        check_workload(Workload((1, 2), (1,), 0, 1, 1.0))


@pytest.mark.parametrize(
    "w",
    [Workload.from_values([(5, 4), (3.5, 3.25)], 4, 2, 1.0), Workload.from_values([(1, 0)], 0, 1, 0.5, sigma=2)],
)
def test_workload_json_round_trip(w):
    assert Workload.from_json_dict(w.to_json_dict()) == w


@pytest.mark.parametrize(
    "tape",
    [NoiseTape(0.5, (1, -2.25)), NoiseTape(-1, ((1, 2), (3.5, -4)), TapeLayout.PAIRED)],
)
def test_tape_json_round_trip(tape):
    data = tape.to_json_dict()
    assert data["layout"] == tape.layout.value
    assert NoiseTape.from_json_dict(data, tape.layout, len(tape)) == tape
