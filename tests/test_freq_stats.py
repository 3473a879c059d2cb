import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import positive_floats
from mbstat import cov, joint_moment, mean, moments
from mbstat.freq_stats import spec_means
from mbstat.errors import EmptyInput, LengthMismatch

seqs = st.lists(positive_floats, min_size=1, max_size=50)


class TestMean:
    def test_worked(self):
        assert mean([2, 8, 3]) == 13 / 3

    def test_single(self):
        assert mean([4.25]) == 4.25

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mean([])

    def test_total_sum_is_n_times_mean(self):
        xs = [2, 8, 3]
        assert len(xs) * mean(xs) == pytest.approx(13.0, rel=1e-15)


class TestJointMoment:
    def test_worked(self):
        assert joint_moment([2, 8, 3], [2, 2, 2]) == 26 / 3

    def test_ones_reduce_to_mean(self):
        xs = [2, 8, 3]
        assert joint_moment(xs, [1, 1, 1]) == mean(xs)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            joint_moment([1, 2, 3], [1, 2])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            joint_moment([], [])


class TestCov:
    def test_worked(self):
        # values of asset 1 against volumes of asset 2: 5 - (13/3)(4/3)
        assert cov([2, 8, 3], [2, 1, 1]) == pytest.approx(-7 / 9, rel=1e-14)

    def test_constant_sequence(self):
        assert cov([2.0, 2.0, 2.0], [1.0, 5.0, 3.0]) == 0.0

    def test_single_point(self):
        assert cov([3.7], [1.9]) == 0.0

    @given(seqs)
    def test_cov_xx_is_variance(self, xs):
        assert cov(xs, xs) == moments(xs).variance

    @given(st.lists(positive_floats, min_size=1, max_size=50), st.data())
    def test_symmetry(self, xs, data):
        ys = data.draw(
            st.lists(positive_floats, min_size=len(xs), max_size=len(xs))
        )
        assert cov(xs, ys) == pytest.approx(cov(ys, xs), rel=1e-15, abs=1e-300)

    @given(
        st.lists(positive_floats, min_size=2, max_size=30),
        st.data(),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_bilinearity(self, xs, data, scale):
        ys = data.draw(
            st.lists(positive_floats, min_size=len(xs), max_size=len(xs))
        )
        lhs = cov([scale * x for x in xs], ys)
        rhs = scale * cov(xs, ys)
        floor = scale * max(xs) * max(ys)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), floor)

    @given(st.lists(positive_floats, min_size=1, max_size=30), st.data())
    def test_decomposition_identity(self, xs, data):
        # cov is defined as the joint moment minus the product of means, so
        # the reconstruction holds bit for bit.
        ys = data.draw(
            st.lists(positive_floats, min_size=len(xs), max_size=len(xs))
        )
        assert cov(xs, ys) == joint_moment(xs, ys) - mean(xs) * mean(ys)


class TestMoments:
    def test_worked(self):
        m = moments([2, 4, 4])
        assert m.mean == 10 / 3
        assert m.second_moment == 12.0
        assert m.variance == pytest.approx(8 / 9, rel=1e-14)

    def test_constant(self):
        assert moments([5.0, 5.0, 5.0]).variance == 0.0

    def test_two_points(self):
        assert moments([1, 3]).variance == 1.0

    @given(seqs)
    def test_variance_nonnegative_up_to_slack(self, xs):
        m = moments(xs)
        assert m.variance >= -1e-12 * m.second_moment
        assert m.second_moment >= m.mean * m.mean - 1e-12 * m.second_moment

    def test_large_sequence_compensation(self):
        # one million identical ticks: the mean must come back exact
        xs = [0.1] * 1_000_000
        assert mean(xs) == 0.1
        assert moments(xs).variance <= 1e-12 * 0.01


def test_mean_handles_numpy_input():
    import numpy as np

    assert mean(np.array([2.0, 8.0, 3.0])) == 13 / 3
    assert math.isfinite(cov(np.arange(1.0, 5.0), np.arange(2.0, 6.0)))


@given(st.lists(st.tuples(positive_floats, positive_floats), min_size=1, max_size=50))
def test_spec_means_match_mean_and_joint_moment_bits(pairs):
    xs, ys = (list(col) for col in zip(*pairs))
    got = spec_means({"x": xs, "y": ys}, [("x", None), ("y", None), ("x", "y"), ("y", "y")])
    assert got == [mean(xs), mean(ys), joint_moment(xs, ys), joint_moment(ys, ys)]


def test_spec_means_refuse_unequal_lengths():
    with pytest.raises(LengthMismatch, match="differ in length"):
        spec_means({"x": [1.0, 2.0], "y": [1.0]}, [("x", None)])
