import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import return_view_pairs, trade_windows, window_pairs
from mbstat import (
    WeightVector,
    em_expectation,
    joint_moment,
    make_weights,
    oracle_corr,
    vawar,
    vwap,
)
from mbstat.errors import LengthMismatch, NonPositiveInput, UnnormalizedWeights
from mbstat.oracle import relative_deviation

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

    def test_unknown_kind(self):
        with pytest.raises(NonPositiveInput):
            make_weights("nope", [1.0])

    def test_single_kind_rejects_second_sequence(self):
        with pytest.raises(LengthMismatch):
            make_weights("volume", [1.0], [2.0])

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
        from mbstat import Window, compute_returns, make_series
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
        rv2 = compute_returns(Window(s2, beta, n), beta)

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


class TestRelativeDeviation:
    def test_equal_values(self):
        assert relative_deviation(0.0, 0.0) == 0.0
        assert relative_deviation(1.5, 1.5, 10.0) == 0.0

    def test_plain_relative(self):
        assert relative_deviation(1.0, 1.1) == pytest.approx(0.1 / 1.1)

    def test_floor_prevents_blowup(self):
        assert relative_deviation(1e-18, 2e-18, 1.0) == pytest.approx(1e-18)


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

    def test_imports_no_numpy_and_no_mbstat_arithmetic(self):
        import mbstat.oracle as oracle

        with open(oracle.__file__) as fh:
            imports = [ln for ln in fh if ln.startswith(("import ", "from "))]
        assert not [ln for ln in imports if "numpy" in ln]
        assert [ln for ln in imports if "from ." in ln] == [
            "from .errors import LengthMismatch, NonPositiveInput, UnnormalizedWeights\n"
        ]
