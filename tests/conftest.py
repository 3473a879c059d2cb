import numpy as np
import pytest
from hypothesis import strategies as st

from direct import returns_of
from mbstat import Window, compute_returns, make_series

# Bounded positive floats keep every statistic's natural scale near 1, so the
# scale-aware tolerance checks in the properties stay meaningful.
positive_floats = st.floats(min_value=0.25, max_value=4.0, allow_nan=False)

# Grids (start, step, ticks) that reach an end of int64, or span it.
INT64_END_GRIDS = [
    (-(2**63), 1, 5), (2**63 - 5, 1, 5), (-(2**63), 2**33 + 1, 7),
    (2**63 - 1 - 6 * (2**33 + 1), 2**33 + 1, 7), (-(2**63), 2**63 - 1, 3),
    (-3, 2**62, 3)]


@st.composite
def trade_windows(draw, min_n=1, max_n=32, history=0):
    """A window over a fresh series, with `history` spare ticks before it."""
    n = draw(st.integers(min_n, max_n))
    total = n + history
    prices = draw(st.lists(positive_floats, min_size=total, max_size=total))
    volumes = draw(st.lists(positive_floats, min_size=total, max_size=total))
    series = make_series("hyp", np.arange(total), prices, volumes)
    return Window(series, start=history, count=n)


@st.composite
def window_pairs(draw, min_n=2, max_n=32):
    """Two equally long windows over independent series on one grid."""
    n = draw(st.integers(min_n, max_n))
    cols = [
        draw(st.lists(positive_floats, min_size=n, max_size=n)) for _ in range(4)
    ]
    s1 = make_series("hyp1", np.arange(n), cols[0], cols[1])
    s2 = make_series("hyp2", np.arange(n), cols[2], cols[3])
    return Window(s1, 0, n), Window(s2, 0, n)


@st.composite
def return_view_pairs(draw, min_n=2, max_n=32):
    """Two return views at the same tick times, independent horizons."""
    n = draw(st.integers(min_n, max_n))
    alpha = draw(st.integers(1, 3))
    beta = draw(st.integers(1, 3))
    hist = max(alpha, beta)
    total = n + hist
    cols = [
        draw(st.lists(positive_floats, min_size=total, max_size=total))
        for _ in range(4)
    ]
    s1 = make_series("hyp1", np.arange(total), cols[0], cols[1])
    s2 = make_series("hyp2", np.arange(total), cols[2], cols[3])
    return returns_of(s1, hist, n, alpha), returns_of(s2, hist, n, beta)


@pytest.fixture
def worked_price_pair():
    """3-tick pair: p1=[2,4,3] U1=[1,2,1] against p2=[1,2,2] U2=[2,1,1]."""
    s1 = make_series("asset1", [0, 1, 2], [2, 4, 3], [1, 2, 1])
    s2 = make_series("asset2", [0, 1, 2], [1, 2, 2], [2, 1, 1])
    return Window(s1, 0, 3), Window(s2, 0, 3)


@pytest.fixture
def worked_returns():
    """Prices [1,2,4,2], window over t=1..3 with volumes [1,1,2], horizon 1:
    r=[2,2,0.5], past values [1,2,8], values [2,4,4]."""
    s = make_series("asset1", [0, 1, 2, 3], [1, 2, 4, 2], [1, 1, 1, 2])
    return compute_returns(Window(s, 1, 3), 1)


@pytest.fixture
def vol_window():
    """p=[1,3], U=[1,3]: VWAP 2.5, market price variance 0.45."""
    s = make_series("vol", [0, 1], [1, 3], [1, 3])
    return Window(s, 0, 2)
