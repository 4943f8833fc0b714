"""Estimation quality measures used by the benchmark studies."""

from __future__ import annotations

import numpy as np

from .lti import CtModel, _attempt, _h2_block, _h2_norm_sq, _one, _split

__all__ = ["mse_g", "mse_theta", "fit"]


def mse_g(g_hat: CtModel, g_true: CtModel) -> float:
    """Relative squared L2 error of the frequency function.

    ``||g_hat - g_true||_2^2 / ||g_true||_2^2``, the difference normed through
    the block-diagonal realization of both models, not their order-``2n``
    product form, which loses it to rounding; accurate to 1e-6 relative plus
    1e-11 against frequency-domain quadrature.

    Raises
    ------
    UnstableSystem
        If either model is unstable.
    NotPositiveDefinite
        If a Gramian quadratic form is negative beyond rounding, or a
        Gramian's Lyapunov equation is singular to working precision.
    ValueError
        If a squared norm overflows the float range, or ``g_true``'s is zero.
    """
    return _one(_mse_g_rows(g_hat.theta[None], [_truth(g_true)]))


def _truth(g: CtModel) -> tuple:
    """``(_h2_block(-1.0, g), ||g||_2^2)``: what scoring an estimate against ``g`` reuses.

    Negating ``C`` is exact, so the block's norm is ``l2_norm_sq(g)`` to the bit.
    A zero norm, against which no error is relative, is a ``ValueError``.
    """
    block = _one(_h2_block(-1.0, g.den, g.num))
    norm_sq = _h2_norm_sq(block)
    if norm_sq == 0.0:
        raise ValueError("the true system has a zero H2 norm; mse_g is undefined")
    return block, norm_sq


def _mse_g_rows(thetas: np.ndarray, truths) -> list:
    """:func:`mse_g` of each estimate ``thetas[i]`` against ``truths[i] = _truth(g_true)``.

    One stacked :func:`lti._h2_block` for the estimates, then each row's
    Lyapunov solve; a row that its own call would refuse holds the exception.
    """
    num, den = _split(thetas)
    return [_attempt(lambda: _h2_norm_sq(_one([block]), minus_true) / true_norm_sq)
            for block, (minus_true, true_norm_sq) in zip(_h2_block(1.0, den, num), truths)]


def mse_theta(theta_hat, theta_true) -> float:
    """Relative squared parameter error ``||theta_hat - theta||^2 / ||theta||^2``.

    A shorter estimate vector is padded with leading zeros, matching the
    layout where constrained high-order numerator entries come first.  A
    reference of zero norm is a ``ValueError``.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.size < theta_true.size:
        theta_hat = np.concatenate(
            [np.zeros(theta_true.size - theta_hat.size), theta_hat])
    elif theta_hat.size > theta_true.size:
        raise ValueError("estimate vector is longer than the reference")
    diff, norm_sq = theta_hat - theta_true, float(theta_true @ theta_true)
    if norm_sq == 0.0:
        raise ValueError("the reference parameter vector has a zero norm; mse_theta is undefined")
    return float(diff @ diff) / norm_sq


def fit(y_hat, y) -> float:
    """Percent of output variation explained, 100 for a perfect match.

    ``100 (1 - ||y_hat - y|| / ||y - mean(y)||)``; can be negative when the
    prediction is worse than the constant mean.  ``y`` is the reference
    (noise-free) output.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_hat.shape != y.shape:
        raise ValueError("sequences must have equal length")
    denom = np.linalg.norm(y - y.mean())
    if denom == 0.0:
        raise ValueError("reference output is constant; fit is undefined")
    return float(100.0 * (1.0 - np.linalg.norm(y_hat - y) / denom))
