"""Estimation quality measures used by the benchmark studies."""

from __future__ import annotations

import numpy as np

from .lti import CtModel, _h2_block, _h2_norm_sq

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
    """
    return _mse_g(g_hat, *_truth(g_true))


def _truth(g: CtModel) -> tuple:
    """``(_h2_block(-1.0, g), ||g||_2^2)``: what scoring an estimate against ``g`` reuses.

    Negating ``C`` is exact, so the block's norm is ``l2_norm_sq(g)`` to the bit.
    """
    block = _h2_block(-1.0, g)
    return block, _h2_norm_sq(block)


def _mse_g(g_hat: CtModel, minus_true, true_norm_sq: float) -> float:
    """:func:`mse_g` given ``(minus_true, true_norm_sq) = _truth(g_true)``.

    For callers that score several estimates against one true system.
    """
    return _h2_norm_sq(_h2_block(1.0, g_hat), minus_true) / true_norm_sq


def mse_theta(theta_hat, theta_true) -> float:
    """Relative squared parameter error ``||theta_hat - theta||^2 / ||theta||^2``.

    A shorter estimate vector is padded with leading zeros, matching the
    layout where constrained high-order numerator entries come first.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.size < theta_true.size:
        theta_hat = np.concatenate(
            [np.zeros(theta_true.size - theta_hat.size), theta_hat])
    elif theta_hat.size > theta_true.size:
        raise ValueError("estimate vector is longer than the reference")
    diff = theta_hat - theta_true
    return float(diff @ diff) / float(theta_true @ theta_true)


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
