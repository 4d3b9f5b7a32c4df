"""Poincaré unit-ball gyrovector operations.

Points live in the open unit ball (trailing axis is the embedding dimension,
any leading batch axes). The curvature and margins are fixed: curvature 1, so
all formulas are for the unit ball, and the margins of :data:`DEFAULT_PARAMS`,
which every op reads itself. Every producing operation ends with a clamp of
trailing-vector norms to 1 - eps_ball (:func:`ball_clamp`), which keeps atanh
(and therefore gradients) bounded.

Each public ball op records one tape node whose backward is the op's
closed-form vector-Jacobian product (Ganea et al., Hyperbolic Neural
Networks, 2018), clamp included; the tape engine is interpreter-bound, so
one node per op instead of 10-20 primitive nodes is what makes them cheap.

Conventions:
- ball points and tangent vectors are plain :class:`~hypermesh.tensor.Tensor`
  values of shape [..., n];
- a weight of :func:`mobius_matvec` may carry a leading block axis, [B, m, n]
  against points [..., B, k, n], so that blocks of one architecture run in
  one call;
- zero-norm singularities are removed with a smoothed norm
  sqrt(||x||^2 + eps_norm^2), whose limit at the origin matches the
  removable-singular limit of the exact formulas;
- every row reduction (norms and inner products) is one ``np.vecdot`` over
  C-contiguous rows, and :func:`mobius_matvec` multiplies C-contiguous rows,
  so a row's bits depend neither on its batch position nor on the memory
  layout of the operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class BallParams:
    """Numerical-stability policy for ball operations.

    eps_ball: boundary clamp margin (norms are kept <= 1 - eps_ball).
    eps_norm: zero-norm smoothing for the removable singularities at 0.
    """

    eps_ball: float = 1e-5
    eps_norm: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.eps_ball < 1e-2):
            raise ContractError(f"eps_ball must be in (0, 1e-2), got {self.eps_ball}")
        if not (0.0 < self.eps_norm < self.eps_ball):
            raise ContractError(
                f"eps_norm must be in (0, eps_ball), got {self.eps_norm}")


# The engine's ball margins; only ball_clamp (for SGD(ball=)) takes others.
DEFAULT_PARAMS = BallParams()


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.vecdot(np.ascontiguousarray(a), np.ascontiguousarray(b))[..., None]


def _smoothed_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(x, x) + DEFAULT_PARAMS.eps_norm * DEFAULT_PARAMS.eps_norm)


def _atanh(n: np.ndarray) -> np.ndarray:
    if not np.all(n < 1.0):
        raise NumericError("atanh: input outside the open interval (-1, 1)")
    return np.arctanh(n)


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def ball_clamp(z: np.ndarray, p: BallParams = DEFAULT_PARAMS
               ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Rescale trailing vectors of ``z`` with norm > 1 - eps_ball onto that shell.

    Array-level core of every producing ball op (default margins) and of the
    optimizer's re-projection, whose ``ball=`` margins arrive as ``p``.
    Returns the clamped array and its vector-Jacobian product: the identity on
    rows left inside, the radial-projection Jacobian (1 - eps_ball) / ||z||
    (I - u u^T), u = z / ||z||, on rescaled rows; ``z`` itself when no row is
    rescaled. A row holding NaN/Inf, or a finite row whose squared norm
    overflows (norm above about 1.3e154), raises :class:`NumericError`.
    """
    norms = np.sqrt(_rowdot(z, z))
    if not np.isfinite(norms).all():
        raise NumericError("ball clamp: input contains NaN/Inf, "
                           "or a row whose squared norm overflows")
    max_norm = 1.0 - p.eps_ball
    outside = norms > max_norm
    if not outside.any():
        return z, _identity
    safe = np.maximum(norms, p.eps_norm)
    ratio = max_norm / safe

    def vjp(g):
        unit = z / safe
        return np.where(outside, ratio * (g - _rowdot(g, unit) * unit), g)

    return z * np.where(outside, ratio, 1.0), vjp


def project_to_ball(x: Tensor) -> Tensor:
    """Rescale trailing vectors with norm > 1 - eps_ball back onto that shell.

    Vectors already inside are untouched (identity gradient); rescaled
    vectors get the radial-projection Jacobian. See :func:`ball_clamp`.
    """
    data, vjp = ball_clamp(x.data)
    return T._make(data.view(), "project_to_ball", (x,), lambda g: (vjp(g),))


def mobius_add(x: Tensor, y: Tensor) -> Tensor:
    """Möbius addition x (+) y, projected back to the ball.

    Closed form:
        ((1 + 2<x,y> + ||y||^2) x + (1 - ||x||^2) y)
        / (1 + 2<x,y> + ||x||^2 ||y||^2)
    Non-commutative; the origin is the two-sided identity. The operands
    broadcast against each other (e.g. a bias ``y`` of shape [n]).
    """
    if x.shape[-1] != y.shape[-1]:
        raise ShapeError(f"mobius_add trailing dims differ: {x.shape} vs {y.shape}")
    xd, yd = x.data, y.data
    xy, x2, y2 = _rowdot(xd, yd), _rowdot(xd, xd), _rowdot(yd, yd)
    a = 1.0 + 2.0 * xy + y2
    b = 1.0 - x2
    num = a * xd + b * yd
    den = 1.0 + 2.0 * xy + x2 * y2
    data, vjp = ball_clamp(num / den)

    def backward(g):
        xd, yd = x.data, y.data
        g_num = vjp(g) / den
        g_den = -_rowdot(g_num, num) / den
        g_a = _rowdot(g_num, xd)
        g_xy = 2.0 * (g_a + g_den)
        gx = gy = None
        if x.requires_grad:
            g_x2 = g_den * y2 - _rowdot(g_num, yd)
            gx = T._unbroadcast(a * g_num + g_xy * yd + 2.0 * g_x2 * xd, x.shape)
        if y.requires_grad:
            g_y2 = g_a + g_den * x2
            gy = T._unbroadcast(b * g_num + g_xy * xd + 2.0 * g_y2 * yd, y.shape)
        return gx, gy

    return T._make(data, "mobius_add", (x, y), backward)


def expmap0(v: Tensor) -> Tensor:
    """Exponential map at the origin: tanh(||v||/2) v / ||v||.

    Maps tangent (Euclidean) vectors onto the ball; the origin maps to
    itself. The clamp at the end only fires for extreme inputs where
    tanh saturates past 1 - eps_ball.
    """
    vd = v.data
    n = _smoothed_norm(vd)
    t = np.tanh(0.5 * n)
    s = t / n
    data, vjp = ball_clamp(vd * s)

    def backward(g):
        gz = vjp(g)
        # d s / d n = (1 - t^2) / (2 n) - t / n^2; d n / d v = v / n
        ds = (0.5 * (1.0 - t * t) - s) / n
        return (gz * s + (_rowdot(gz, vd) * ds / n) * vd,)

    return T._make(data, "expmap0", (v,), backward)


def logmap0(x: Tensor) -> Tensor:
    """Logarithmic map at the origin: 2 atanh(||x||) x / ||x||.

    Exact inverse of :func:`expmap0` away from the clamp shell.
    """
    xd = x.data
    n = _smoothed_norm(xd)
    m = 2.0 * _atanh(n)
    s = m / n

    def backward(g):
        # s = m / n with m = 2 atanh(n): d s / d n = -m / n^2 + 2 / (n (1 - n^2))
        g_s = _rowdot(g, xd)
        g_n = -g_s * m / (n * n) + g_s / n * 2.0 / (1.0 - n * n)
        return (g * s + g_n * xd / n,)

    return T._make(xd * s, "logmap0", (x,), backward)


def mobius_matvec(w: Tensor, x: Tensor) -> Tensor:
    """Möbius matrix-vector product W (x)_M x.

    tanh((||Wx|| / ||x||) atanh(||x||)) Wx / ||Wx||, equivalently
    expmap0(W . logmap0(x)). Acts on the trailing axis; ``w`` is [m, n] and
    ``x`` is [..., n], or ``w`` is [B, m, n] and ``x`` is [..., B, k, n], one
    weight slice per block.
    """
    if (w.ndim not in (2, 3) or w.shape[-1] != x.shape[-1]
            or (w.ndim == 3 and (x.ndim < 3 or x.shape[-3] != w.shape[0]))):
        raise ShapeError(f"mobius_matvec shapes incompatible: W {w.shape}, x {x.shape}")
    xd = np.ascontiguousarray(x.data)
    y = xd @ w.data.mT
    nx = _smoothed_norm(xd)
    ny = _smoothed_norm(y)
    atx = _atanh(nx)
    r = ny / nx
    t = np.tanh(r * atx)
    s = t / ny
    data, vjp = ball_clamp(y * s)

    def rows(a):  # [..., n] -> the rows each weight slice sees: [rows, n] or [B, rows, n]
        lead = w.shape[:-2]
        return (np.moveaxis(a, -3, 0) if lead else a).reshape(*lead, -1, a.shape[-1])

    def backward(g):
        # z = y s, s = t / ny, t = tanh(u), u = r atanh(nx), r = ny / nx
        gz = vjp(g)
        g_t = _rowdot(gz, y) / ny
        g_u = g_t * (1.0 - t * t)
        g_r = g_u * atx
        g_ny = g_r / nx - g_t * s
        gy = gz * s + (g_ny / ny) * y
        gw = gx = None
        if w.requires_grad:
            gw = rows(gy).mT @ rows(xd)
        if x.requires_grad:
            g_nx = g_u * r / (1.0 - nx * nx) - g_r * r / nx
            gx = gy @ w.data + (g_nx / nx) * xd
        return gw, gx

    return T._make(data, "mobius_matvec", (w, x), backward)
