"""Direct recomputation of a window position: its four legs (the price
windows of asset 1 and of asset 2 read ``beta`` steps back, and the return
views of both over ``alpha`` and ``beta``) and the ``mb_*`` functions on them."""

import numpy as np

from mbstat import (
    Window,
    compute_returns,
    mb_corr_price_return,
    mb_corr_prices,
    mb_corr_returns,
    mb_joint_price_moment,
    mb_joint_return_moment,
    mb_price_volatility,
    mb_return_volatility,
)


def returns_of(series, start, n, horizon):
    """The return view over ``horizon`` of ``n`` ticks of ``series`` from ``start``."""
    return compute_returns(Window(series, start, n), horizon)


def legs(s1, s2, start1, start2, n, alpha, beta):
    """``(w1, w2_lagged, rv1, rv2)`` of the ``n``-tick windows of ``s1`` at
    ``start1`` and of ``s2`` at ``start2``."""
    w1 = Window(s1, start1, n)
    w2_lagged = Window(s2, start2, n, lag=beta)
    return w1, w2_lagged, compute_returns(w1, alpha), returns_of(s2, start2, n, beta)


def direct_values(s1, s2, plan, position):
    """Per family, ``(market, frequency)`` value of a plan position,
    recomputed from its legs via the closed-form layer."""
    w1, w2_lagged, rv1, rv2 = legs(s1, s2, plan.start_index1(position),
                                   plan.start_index2(position), plan.window, plan.alpha,
                                   plan.beta)
    price = mb_corr_prices(w1, w2_lagged)
    ret = mb_corr_returns(rv1, rv2)
    mixed = mb_corr_price_return(w1, rv2)
    return {
        "price_corr": (price.market_value, price.frequency_value),
        "return_corr": (ret.market_value, ret.frequency_value),
        "price_return_corr": (mixed.market_value, mixed.frequency_value),
        "price_vol": (mb_price_volatility(w1), np.var(np.asarray(w1.price))),
        "return_vol": (mb_return_volatility(rv1), np.var(np.asarray(rv1.r))),
        "joint_price_moment": (
            mb_joint_price_moment(w1, w2_lagged),
            float(np.mean(np.asarray(w1.price) * np.asarray(w2_lagged.price))),
        ),
        "joint_return_moment": (
            mb_joint_return_moment(rv1, rv2),
            float(np.mean(np.asarray(rv1.r) * np.asarray(rv2.r))),
        ),
    }
