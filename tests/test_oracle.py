import ast
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import return_view_pairs, trade_windows, window_pairs
import exact
from direct import returns_of
from mbstat import (
    WeightVector,
    em_expectation,
    joint_moment,
    make_weights,
    oracle_corr,
    vawar,
    vwap,
)
from mbstat.errors import (EmptyInput, InvalidConfig, LengthMismatch, NonPositiveInput,
                           UnnormalizedWeights)
from mbstat import oracle
from mbstat.oracle import oracle_corr_windows, relative_deviation

positive_seqs = st.lists(
    st.floats(min_value=0.25, max_value=4.0, allow_nan=False), min_size=1, max_size=30
)


class TestMakeWeights:
    def test_volume_product_worked(self):
        w = make_weights("volume_product", [1, 2, 1], [2, 1, 1])
        assert w.weights == (0.4, 0.4, 0.2)

    def test_uniform_volumes(self):
        w = make_weights("volume", [3.0, 3.0, 3.0, 3.0])
        assert all(wi == pytest.approx(0.25, rel=1e-15) for wi in w.weights)

    def test_past_value_product_worked(self):
        w = make_weights("past_value_product", [1, 2, 8], [1, 2, 8])
        expect = [1 / 69, 4 / 69, 64 / 69]
        assert list(w.weights) == pytest.approx(expect, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_weights("volume_past_value", [1, 2, 3], [1, 2])

    def test_nonpositive_input(self):
        with pytest.raises(NonPositiveInput):
            make_weights("volume", [1.0, 0.0, 2.0])

    @pytest.mark.parametrize("kind, sequences", [
        ("volume", ([],)), ("past_value", (np.array([]),)), ("volume_product", ([], [])),
    ])
    def test_empty_input(self, kind, sequences):
        with pytest.raises(EmptyInput, match="entries are empty$"):
            make_weights(kind, *sequences)

    def test_unknown_kind(self):
        with pytest.raises(NonPositiveInput):
            make_weights("nope", [1.0])

    def test_single_kind_rejects_second_sequence(self):
        with pytest.raises(LengthMismatch):
            make_weights("volume", [1.0], [2.0])

    def test_product_kind_rejects_one_sequence(self):
        with pytest.raises(LengthMismatch, match="^kind 'volume_product' takes two sequences$"):
            make_weights("volume_product", [1.0])

    @given(positive_seqs, st.sampled_from(["volume", "past_value"]))
    def test_single_weights_sum_to_one(self, xs, kind):
        w = make_weights(kind, xs)
        assert abs(math.fsum(w.weights) - 1.0) <= 1e-12
        assert all(wi > 0 for wi in w.weights)

    @given(
        positive_seqs,
        st.data(),
        st.sampled_from(["volume_product", "past_value_product", "volume_past_value"]),
    )
    def test_product_weights_sum_to_one(self, xs, data, kind):
        ys = data.draw(
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
                min_size=len(xs),
                max_size=len(xs),
            )
        )
        w = make_weights(kind, xs, ys)
        assert abs(math.fsum(w.weights) - 1.0) <= 1e-12


class TestEmExpectation:
    def test_worked_price_product_mean(self):
        w = make_weights("volume_product", [1, 2, 1], [2, 1, 1])
        assert em_expectation([2, 8, 6], w) == pytest.approx(5.2, rel=1e-14)

    def test_uniform_weights_give_mean(self):
        w = WeightVector("volume", (0.25,) * 4)
        assert em_expectation([1.0, 2.0, 3.0, 4.0], w) == 2.5

    def test_unnormalized_rejected(self):
        w = WeightVector("volume", (0.5, 0.4))
        with pytest.raises(UnnormalizedWeights):
            em_expectation([1.0, 2.0], w)

    def test_length_mismatch(self):
        w = make_weights("volume", [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            em_expectation([1.0, 2.0, 3.0], w)

    @given(trade_windows(min_n=1, max_n=24))
    def test_volume_weighted_price_reproduces_vwap(self, window):
        w = make_weights("volume", window.volume)
        direct = em_expectation(window.price, w)
        assert relative_deviation(direct, vwap(window), 1.0) <= 1e-12

    @given(return_view_pairs(min_n=2, max_n=24))
    def test_past_value_weighted_return_reproduces_vawar(self, pair):
        rv, _ = pair
        w = make_weights("past_value", rv.c_past)
        direct = em_expectation(rv.r, w)
        assert relative_deviation(direct, vawar(rv), 1.0) <= 1e-12


class TestIntermediateMeans:
    """The carrier-weighted means of prices/returns equal ratios of the
    corresponding frequency joint moments of values/volumes/past values."""

    @given(window_pairs(min_n=2, max_n=24))
    def test_price_pair_means(self, pair):
        w1, w2 = pair
        w = make_weights("volume_product", w1.volume, w2.volume)
        uu = joint_moment(w1.volume, w2.volume)
        checks = [
            (em_expectation(w1.price * w2.price, w), joint_moment(w1.value, w2.value) / uu),
            (em_expectation(w1.price, w), joint_moment(w1.value, w2.volume) / uu),
            (em_expectation(w2.price, w), joint_moment(w1.volume, w2.value) / uu),
        ]
        for direct, via_moments in checks:
            assert relative_deviation(direct, via_moments, 1.0) <= 1e-12

    @given(return_view_pairs(min_n=2, max_n=24))
    def test_return_pair_means(self, pair):
        rv1, rv2 = pair
        z = make_weights("past_value_product", rv1.c_past, rv2.c_past)
        coco = joint_moment(rv1.c_past, rv2.c_past)
        checks = [
            (em_expectation(rv1.r * rv2.r, z), joint_moment(rv1.value, rv2.value) / coco),
            (em_expectation(rv1.r, z), joint_moment(rv1.value, rv2.c_past) / coco),
            (em_expectation(rv2.r, z), joint_moment(rv1.c_past, rv2.value) / coco),
        ]
        for direct, via_moments in checks:
            assert relative_deviation(direct, via_moments, 1.0) <= 1e-12

    @given(window_pairs(min_n=2, max_n=24), st.data())
    def test_mixed_pair_means(self, pair, data):
        from mbstat import make_series
        import numpy as np

        w1, w2 = pair
        n = w1.count
        beta = data.draw(st.integers(1, 2))
        total = n + beta
        prices = data.draw(
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
                min_size=total,
                max_size=total,
            )
        )
        volumes = data.draw(
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
                min_size=total,
                max_size=total,
            )
        )
        s2 = make_series("hyp2", np.arange(total), prices, volumes)
        rv2 = returns_of(s2, beta, n, beta)

        psi = make_weights("volume_past_value", w1.volume, rv2.c_past)
        uco = joint_moment(w1.volume, rv2.c_past)
        checks = [
            (em_expectation(w1.price, psi), joint_moment(w1.value, rv2.c_past) / uco),
            (em_expectation(rv2.r, psi), joint_moment(w1.volume, rv2.value) / uco),
            (em_expectation(w1.price * rv2.r, psi), joint_moment(w1.value, rv2.value) / uco),
        ]
        for direct, via_moments in checks:
            assert relative_deviation(direct, via_moments, 1.0) <= 1e-12


class TestOracleCorr:
    def test_price_worked_instance(self, worked_price_pair):
        w1, w2 = worked_price_pair
        value = oracle_corr(
            "price_price", w1.price, w2.price, w1.volume, w2.volume, 3.25, 1.5
        )
        assert value == pytest.approx(0.375, rel=1e-13)

    def test_return_worked_instance(self, worked_returns):
        rv = worked_returns
        h = 10 / 11
        value = oracle_corr(
            "return_return", rv.r, rv.r, rv.c_past, rv.c_past, h, h
        )
        assert value == pytest.approx(672 / 2783, rel=1e-13)

    def test_constant_first_sequence(self):
        value = oracle_corr(
            "price_price", [2.0, 2.0], [1.0, 3.0], [1.0, 5.0], [2.0, 2.0], 2.0, 2.0
        )
        assert value == 0.0

    def test_unknown_kind(self):
        with pytest.raises(NonPositiveInput):
            oracle_corr("nope", [1.0], [1.0], [1.0], [1.0], 1.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            oracle_corr(
                "price_price", [1.0, 2.0], [1.0], [1.0], [1.0], 1.0, 1.0
            )


BIG, INF, NAN = [1e300, 1e300], math.inf, math.nan

# (function, arguments, error class, whole message).  Where an input breaks two
# rules, the row names the error that wins.
SCALAR_ERRORS = [
    (make_weights, ("volume", [1.0], [2.0]), LengthMismatch,
     "kind 'volume' takes a single sequence"),
    (make_weights, ("past_value", []), EmptyInput, "past_value entries are empty"),
    (make_weights, ("volume_product", [1.0]), LengthMismatch,
     "kind 'volume_product' takes two sequences"),
    (make_weights, ("nope", [1.0]), NonPositiveInput, "unknown weight kind 'nope'"),
    (make_weights, ("nope", [], [0.0]), NonPositiveInput, "unknown weight kind 'nope'"),
    (make_weights, ("volume", [2.0, 0.0, -1.0]), NonPositiveInput,
     "volume entries must be > 0, got 0.0"),
    (make_weights, ("volume", [1, -3]), NonPositiveInput, "volume entries must be > 0, got -3.0"),
    (make_weights, ("past_value", [1.0, NAN]), NonPositiveInput,
     "past_value entries must be > 0, got nan"),
    (make_weights, ("volume_product", [], [1.0]), EmptyInput,
     "volume_product[1] entries are empty"),
    (make_weights, ("volume_product", [1.0], []), EmptyInput,
     "volume_product[2] entries are empty"),
    (make_weights, ("volume_past_value", [], [-1.0]), EmptyInput,
     "volume_past_value[1] entries are empty"),
    (make_weights, ("volume_past_value", [0.0], [-1.0]), NonPositiveInput,
     "volume_past_value[1] entries must be > 0, got 0.0"),
    (make_weights, ("volume_product", [1.0, 0.0], [1.0]), NonPositiveInput,
     "volume_product[1] entries must be > 0, got 0.0"),
    (make_weights, ("volume_product", [1.0], [1.0, -2.0]), NonPositiveInput,
     "volume_product[2] entries must be > 0, got -2.0"),
    (make_weights, ("past_value_product", [1.0, 2.0, 3.0], [1.0, 2.0]), LengthMismatch,
     "weight inputs differ in length: 3 vs 2"),
    (make_weights, ("volume_product", BIG * 2, [1e8, 1e8]), LengthMismatch,
     "weight inputs differ in length: 4 vs 2"),
    (make_weights, ("volume", [1e308, 1e308]), UnnormalizedWeights,
     "normalization drifted by 1.000e+00"),
    (make_weights, ("volume_product", BIG, [1e8, 1e8]), UnnormalizedWeights,
     "normalization drifted by 1.000e+00"),
    (em_expectation, ([1.0, 2.0, 3.0], WeightVector("volume", (0.5, 0.5))), LengthMismatch,
     "values and weights differ in length: 3 vs 2"),
    (em_expectation, ([1.0], WeightVector("volume", (0.5, 0.4))), LengthMismatch,
     "values and weights differ in length: 1 vs 2"),
    (em_expectation, ([1.0, 2.0], WeightVector("volume", (0.5, 0.4))), UnnormalizedWeights,
     "weights sum to 1+1.000e-01"),
    (em_expectation, ([], WeightVector("volume", ())), UnnormalizedWeights,
     "weights sum to 1+1.000e+00"),
    (oracle_corr, ("nope", [1.0], [1.0], [0.0], [1.0], 1.0, 1.0), NonPositiveInput,
     "unknown correlation kind 'nope'"),
    (oracle_corr, ("price_price", [], [], [], [], 1.0, 1.0), EmptyInput,
     "volume_product[1] entries are empty"),
    (oracle_corr, ("price_price", [1.0], [1.0], [], [], 1.0, 1.0), EmptyInput,
     "volume_product[1] entries are empty"),
    (oracle_corr, ("return_return", [1.0, 2.0], [1.0, 2.0], [1.0, 0.0], [1.0, 1.0], 1.0, 1.0),
     NonPositiveInput, "past_value_product[1] entries must be > 0, got 0.0"),
    (oracle_corr, ("price_return", [1.0], [1.0], [1.0], [NAN], 1.0, 1.0), NonPositiveInput,
     "volume_past_value[2] entries must be > 0, got nan"),
    (oracle_corr, ("price_price", [1.0, 2.0], [1.0, 2.0], [1.0, -1.0], [1.0], 1.0, 1.0),
     NonPositiveInput, "volume_product[1] entries must be > 0, got -1.0"),
    (oracle_corr, ("price_price", [1.0], [1.0, 2.0], [1.0, 0.0], [1.0, 1.0], 1.0, 1.0),
     NonPositiveInput, "volume_product[1] entries must be > 0, got 0.0"),
    (oracle_corr, ("price_price", [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0], 1.0, 1.0),
     LengthMismatch, "weight inputs differ in length: 2 vs 1"),
    (oracle_corr, ("price_price", [1.0, 2.0], [1.0], [1.0, 1.0], [1.0, 1.0], 1.0, 1.0),
     LengthMismatch, "sequence lengths differ: 2, 1, weights 2"),
    (oracle_corr, ("price_price", [], [], [1.0], [1.0], 1.0, 1.0), LengthMismatch,
     "sequence lengths differ: 0, 0, weights 1"),
    (oracle_corr, ("price_price", [1.0, 1.0], [1.0, 1.0], BIG, [1e8, 1e8], 1.0, 1.0),
     UnnormalizedWeights, "normalization drifted by 1.000e+00"),
    (oracle_corr, ("price_price", [1.0], [1.0, 1.0], BIG, [1e8, 1e8], 1.0, 1.0),
     UnnormalizedWeights, "normalization drifted by 1.000e+00"),
]


@pytest.mark.parametrize("fn, args, error, message", SCALAR_ERRORS,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(SCALAR_ERRORS)])
def test_scalar_errors(fn, args, error, message):
    with pytest.raises(error) as caught:
        fn(*args)
    assert type(caught.value) is error and str(caught.value) == message


class TestNonFiniteWeights:
    """A weight sum that is not finite fails the weight rule and the check in
    em_expectation: ``spread <= tol`` is false for NaN."""

    def test_an_infinite_carrier(self):
        with pytest.raises(UnnormalizedWeights, match="^normalization drifted by nan$"):
            make_weights("volume", [1.0, INF])

    def test_an_overflowing_product(self):
        # 1e200 * 1e200 overflows to inf: the weights are nan and 0.
        args = [1.0, 2.0], [1.0, 2.0], [1e200, 1e200], [1e200, 1.0]
        with pytest.raises(UnnormalizedWeights, match="^normalization drifted by nan$"):
            oracle_corr("price_price", *args, 1.0, 1.0)
        with pytest.raises(UnnormalizedWeights, match="^normalization drifted by nan$"):
            oracle_corr_windows("price_price", *args, [1.0], [1.0], window=2, stride=1)

    def test_a_nan_weight(self):
        with pytest.raises(UnnormalizedWeights, match=r"^weights sum to 1\+nan$"):
            em_expectation([1.0, 2.0], WeightVector("volume", (NAN, 1.0)))


class TestOracleCorrWindows:
    """The batched oracle and the scalar one, window by window, against the
    exact reference."""

    KINDS = ("price_price", "return_return", "price_return")

    @staticmethod
    def scalar(kind, arrays, avg1, avg2, window, stride, first):
        x1, x2, c1, c2 = arrays
        out = []
        for j, (g1, g2) in enumerate(zip(avg1, avg2)):
            lo = (first + j) * stride
            span = slice(lo, lo + window)
            out.append(oracle_corr(kind, x1[span], x2[span], c1[span], c2[span], g1, g2))
        return out

    @given(st.data())
    def test_matches_the_exact_reference(self, data):
        window = data.draw(st.integers(1, 24), label="window")
        stride = data.draw(st.integers(1, 8), label="stride")
        first = data.draw(st.integers(0, 4), label="first")
        k = data.draw(st.integers(0, 12), label="positions")
        block = data.draw(st.integers(1, 64), label="block elements")
        n = (first + max(k, 1) - 1) * stride + window + data.draw(st.integers(0, 3))
        arrays = x1, x2, c1, c2 = [
            np.array(data.draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
            for _ in range(4)]
        # The averages verify passes: each leg's carrier-weighted mean over
        # the window.
        starts = (first + np.arange(k)) * stride
        avg1, avg2 = (np.array([np.dot(c[lo:lo + window], x[lo:lo + window])
                                / np.sum(c[lo:lo + window]) for lo in starts])
                      for x, c in ((x1, c1), (x2, c2)))
        for kind in self.KINDS:
            with mock.patch.object(oracle, "_BLOCK_ELEMENTS", block):
                # The positions from first on are positions 0, 1, ... of the
                # arrays cut at the first one's start.
                got = oracle_corr_windows(kind, *(a[first * stride:] for a in arrays), avg1,
                                          avg2, window=window, stride=stride)
            assert got.shape == (k,)
            by_window = self.scalar(kind, arrays, avg1, avg2, window, stride, first)
            for lo, g, s, g1, g2 in zip(starts, got.tolist(), by_window, avg1, avg2):
                span = slice(lo, lo + window)
                want = exact.weighted_cov(x1[span], x2[span], c1[span], c2[span], g1, g2)
                # Each weight carries at most window + 2 roundings, each
                # deviation product 3 and the weighted sum window more:
                # bounded, with room to spare, by 4 * (window + 4) ulps of
                # the weighted mean of |(x1 - g1) * (x2 - g2)|.
                w = c1[span] * c2[span]
                size = math.fsum(w * np.abs((x1[span] - g1) * (x2[span] - g2))) / math.fsum(w)
                bound = 4 * (window + 4) * exact.EPS * size
                assert abs(Fraction(g) - want) <= bound
                assert abs(Fraction(s) - want) <= bound

    @pytest.mark.parametrize("window, stride, message", [
        (0, 1, "window must be >= 1, got 0"), (-2, 1, "window must be >= 1, got -2"),
        (2, 0, "stride must be >= 1, got 0")])
    def test_window_and_stride_are_checked_first(self, window, stride, message):
        # Before the kind and the lengths, which are wrong here too.
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            oracle_corr_windows("bad kind", [1.0] * 4, [1.0] * 4, [1.0] * 4, [1.0], [1.0, 2.0],
                                [1.0], window=window, stride=stride)

    def test_blocks_split_at_the_element_bound(self, monkeypatch):
        rng = np.random.default_rng(3)
        arrays = list(rng.uniform(0.5, 2.0, size=(4, 200)))
        avg = rng.uniform(0.5, 2.0, size=(2, 40))
        arrays = [a[8:] for a in arrays]  # from position 2's window on
        whole = oracle_corr_windows("price_return", *arrays, *avg, window=16, stride=4)
        monkeypatch.setattr(oracle, "_BLOCK_ELEMENTS", 48)  # 3 windows per block
        split = oracle_corr_windows("price_return", *arrays, *avg, window=16, stride=4)
        assert split.tolist() == whole.tolist()

    @pytest.mark.parametrize("bad", [0.0, math.nan, -1.0])
    @pytest.mark.parametrize("which", [2, 3])
    def test_carrier_errors_match_the_scalar_oracle(self, bad, which):
        arrays = [np.linspace(1.0, 2.0, 12) for _ in range(4)]
        arrays[which][9] = bad  # inside position 3's window only
        avg = np.full(4, 1.5)
        with pytest.raises(NonPositiveInput):
            self.scalar("price_price", arrays, avg, avg, 4, 2, 0)
        with pytest.raises(NonPositiveInput, match=r"entries must be > 0"):
            oracle_corr_windows("price_price", *arrays, avg, avg, window=4, stride=2)
        # A bad entry outside every requested window is not read.
        oracle_corr_windows("price_price", *arrays, avg[:3], avg[:3], window=4, stride=2)

    def test_unknown_kind_matches_the_scalar_oracle(self):
        ones = np.ones(4)
        with pytest.raises(NonPositiveInput):
            oracle_corr("nope", ones, ones, ones, ones, 1.0, 1.0)
        with pytest.raises(NonPositiveInput, match="unknown correlation kind"):
            oracle_corr_windows("nope", ones, ones, ones, ones, [1.0], [1.0],
                                window=4, stride=1)

    def test_normalization_drift_matches_the_scalar_oracle(self):
        # Each product is finite, their sum overflows: every weight is 0.
        c1, c2 = np.full(2, 1e300), np.full(2, 1e8)
        x = np.ones(2)
        with pytest.raises(UnnormalizedWeights):
            oracle_corr("price_price", x, x, c1, c2, 1.0, 1.0)
        with pytest.raises(UnnormalizedWeights):
            oracle_corr_windows("price_price", x, x, c1, c2, [1.0], [1.0],
                                window=2, stride=1)

    def test_averages_of_unequal_lengths(self):
        ones = np.ones(4)
        with pytest.raises(LengthMismatch, match="^averages differ in length: 2 vs 1$"):
            oracle_corr_windows("price_price", ones, ones, ones, ones, [1.0, 1.0], [1.0],
                                window=2, stride=1)

    def test_arrays_too_short_for_the_last_window(self):
        ones = np.ones(9)
        with pytest.raises(LengthMismatch):
            oracle_corr_windows("price_price", ones, ones[:8], ones, ones, [1.0] * 3,
                                [1.0] * 3, window=5, stride=2)


class TestRelativeDeviation:
    def test_equal_values(self):
        assert relative_deviation(0.0, 0.0) == 0.0
        assert relative_deviation(1.5, 1.5, 10.0) == 0.0

    def test_plain_relative(self):
        assert relative_deviation(1.0, 1.1) == pytest.approx(0.1 / 1.1)

    def test_floor_prevents_blowup(self):
        assert relative_deviation(1e-18, 2e-18, 1.0) == pytest.approx(1e-18)

    @pytest.mark.parametrize("x, y, floor, want", [
        (1.0, 1.0, 5.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1e-18, 2e-18, 1.0, 1e-18),
        (1.0, 1.0 + 2**-52, 1e-3, 2**-52 / (1.0 + 2**-52)), (-3.0, 2.0, 0.5, 5 / 3),
        (math.nan, 1.0, 1.0, math.nan),
        (1.0, math.nan, 1.0, math.nan), (2.0, 1.0, math.nan, 0.5),
        (0.0, math.nan, 0.0, math.nan), (math.inf, math.inf, 1.0, math.nan),
        (math.inf, 1.0, 1.0, math.nan), (1.0, 2.0, math.inf, math.nan),
        (1e300, 1e300, math.inf, 0.0),
    ])
    def test_arrays_follow_the_float_rule(self, x, y, floor, want):
        got = relative_deviation(x, y, floor)
        assert isinstance(got, float) and float.hex(got) == float.hex(want)
        arrays = [np.array([v, 1.0, v]) for v in (x, y, floor)]
        dev = relative_deviation(*arrays)
        assert dev.shape == (3,)
        assert [float.hex(float(v)) for v in dev[::2]] == [float.hex(want)] * 2


class TestInputTypes:
    """Arrays, lists and tuples of the same floats give the same bits."""

    @given(st.data())
    def test_ndarray_list_tuple_agree(self, data):
        import numpy as np

        n = data.draw(st.integers(1, 40))
        floats = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)
        c1, c2, x1, x2 = (
            data.draw(st.lists(floats, min_size=n, max_size=n)) for _ in range(4)
        )

        def results(conv):
            w = make_weights("volume_product", conv(c1), conv(c2))
            return (
                [float.hex(v) for v in w.weights],
                [float.hex(v) for v in make_weights("past_value", conv(c1)).weights],
                float.hex(em_expectation(conv(x1), w)),
                float.hex(oracle_corr("price_return", conv(x1), conv(x2), conv(c1),
                                      conv(c2), 0.75, 1.25)),
            )

        want = results(list)
        assert results(tuple) == want
        assert results(lambda seq: np.array(seq, dtype=np.float64)) == want

    def test_non_float64_arrays_convert_per_element(self):
        import numpy as np

        big = [2**53 + 1, 3, 2**60 + 7]
        as_ints = make_weights("volume_product", np.array(big), np.array(big))
        assert as_ints == make_weights("volume_product", big, big)
        halves = np.array([0.1, 0.2, 0.7], dtype=np.float32)
        assert make_weights("volume", halves) == make_weights(
            "volume", [float(v) for v in halves]
        )

    def test_imports_no_mbstat_arithmetic(self):
        # Every oracle function runs with the rest of mbstat, the package
        # included, unimportable: none reaches another module's arithmetic,
        # not even through an import inside a function.
        others = {name: None for name in sys.modules if name.split(".")[0] == "mbstat"
                  and name not in ("mbstat.oracle", "mbstat.errors")}
        ones = np.ones(4)
        with mock.patch.dict(sys.modules, others):
            w = make_weights("volume_product", [1.0, 2.0], [2.0, 1.0])
            assert em_expectation([2.0, 8.0], w) == 5.0
            assert oracle_corr("price_return", [1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [1.0, 1.0],
                               1.5, 1.5) == -0.25
            assert oracle_corr_windows("price_price", ones, ones, ones, ones, [1.0], [1.0],
                                       window=4, stride=1).tolist() == [0.0]
        with open(oracle.__file__) as fh:
            tree = ast.parse(fh.read())
        modules = [(node.level, node.module) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)]
        modules += [(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        assert [m for m in modules if m[0] or "mbstat" in m[1]] == [(1, "errors")]
