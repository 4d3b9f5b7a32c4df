"""Neural building blocks on the Poincaré ball, and the Euclidean ones of the
temporal prior. Hyperbolic layers keep their activations on the ball: linear
layers act through Möbius algebra, pointwise/normalization layers sandwich the
Euclidean operation between logmap0 and expmap0, and attention computes scores
and aggregation in the tangent space at the origin; the adaptive layer norm
normalizes with one ``tensor.normalize`` node. :class:`Linear`, the one-node
attention core :func:`attention` and :class:`EuclideanAttention` are Euclidean;
both attention modules draw W_Q, W_K, W_V, W_O in :class:`AttentionWeights`.
Every layer also runs B stacked copies of itself in one call: with each
parameter given a leading block axis (a bias [out] as [B, 1, out]), token
rows [..., B, n, d] and a condition [..., B, 1, D] map slice b by weight
slice b, as ``tensor.linear`` and ``manifold.mobius_matvec`` do.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .manifold import expmap0, logmap0, mobius_add, mobius_matvec
from .module import Module
from .tensor import Tensor

INIT_SCALE = 0.05


def _uniform(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True)


class Linear(Module):
    """Plain Euclidean affine map on the trailing axis."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias_init: float = 0.0):
        self.w = _uniform(rng, (out_dim, in_dim))
        self.b = Tensor(np.full(out_dim, bias_init), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class HyperbolicLinear(Module):
    """h = W (x)_M x (+) b with the bias living on the ball."""

    ball_param_names = ("b",)

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = _uniform(rng, (out_dim, in_dim))
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return mobius_add(mobius_matvec(self.w, x), self.b)


def hyper_gelu(x: Tensor) -> Tensor:
    """GELU conjugated by the origin maps: expmap0(GELU(logmap0(x)))."""
    return expmap0(T.gelu(logmap0(x)))


class HyperAdaLN(Module):
    """Adaptive layer norm conjugated by the origin maps.

    The tangent image of each token row is normalized over the feature axis,
    then scaled/shifted by affine projections of a conditioning vector. The
    scale projection's bias starts at 1 so an untrained layer is near-identity.
    ``cond`` keeps its row axis: [1, cond_dim] conditions token rows [n, feat_dim],
    and [T, 1, cond_dim] conditions frame t's rows [T, n, feat_dim] on its row t.
    """

    eps_var = 1e-5  # added to the variance before its square root

    def __init__(self, feat_dim: int, cond_dim: int, rng: np.random.Generator):
        self.gamma_proj = Linear(cond_dim, feat_dim, rng, bias_init=1.0)
        self.beta_proj = Linear(cond_dim, feat_dim, rng)

    def __call__(self, x: Tensor, cond: Tensor) -> Tensor:
        t_hat = T.normalize(logmap0(x), self.eps_var)
        gamma = self.gamma_proj(cond)
        beta = self.beta_proj(cond)
        return expmap0(gamma * t_hat + beta)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of rows q [..., nq, dim] over k, v
    [..., nk, dim], batched over leading (frame) axes, as one node. Its backward is the
    softmax VJP dS = P * (dP - rowsum(dP * P)) of FlashAttention (Dao et al. 2022)."""
    hd = q.shape[-1] // heads
    scale = 1.0 / math.sqrt(hd)

    def split(a: np.ndarray) -> np.ndarray:  # [..., n, dim] -> [B, heads, n, hd]
        return a.reshape(-1, a.shape[-2], heads, hd).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray, shape) -> np.ndarray:
        return a.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ kh.mT) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gc = split(g)
        gp = gc @ vh.mT
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        return (merge(gs @ kh, q.shape) if q.requires_grad else None,
                merge(gs.mT @ qh, k.shape) if k.requires_grad else None,
                merge(p.mT @ gc, v.shape) if v.requires_grad else None)

    return T._make(merge(p @ vh, q.shape), "attention", (q, k, v), backward)


class AttentionWeights(Module):
    """W_Q, W_K, W_V, W_O [dim, dim] of ``heads``-head attention, drawn in that order."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.w_q = _uniform(rng, (dim, dim))
        self.w_k = _uniform(rng, (dim, dim))
        self.w_v = _uniform(rng, (dim, dim))
        self.w_o = _uniform(rng, (dim, dim))
        self.heads = heads
        self.dim = dim


class EuclideanAttention(AttentionWeights):
    """Standard multi-head self-attention over token rows."""

    def __call__(self, x: Tensor) -> Tensor:
        ctx = attention(T.linear(x, self.w_q), T.linear(x, self.w_k),
                        T.linear(x, self.w_v), self.heads)
        return T.linear(ctx, self.w_o)


class HyperAttention(AttentionWeights):
    """Multi-head attention with Möbius Q/K/V projections.

    Q, K, V are built with Möbius matrix-vector products; scores and the
    weighted combination are computed on the logmap0 images (per head,
    scaled by 1/sqrt(head_dim)), and the W_O-projected result is mapped
    back with expmap0. Self-attention is the special case
    ``queries_src is keys_src``.
    """

    def __call__(self, queries_src: Tensor, keys_src: Tensor) -> Tensor:
        lq = logmap0(mobius_matvec(self.w_q, queries_src))
        lk = logmap0(mobius_matvec(self.w_k, keys_src))
        lv = logmap0(mobius_matvec(self.w_v, keys_src))
        return expmap0(T.linear(attention(lq, lk, lv, self.heads), self.w_o))


class HyperFFN(Module):
    """Two hyperbolic linear layers around a hyperbolic GELU, width d -> 4d -> d."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.lin1 = HyperbolicLinear(dim, 4 * dim, rng)
        self.lin2 = HyperbolicLinear(4 * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(hyper_gelu(self.lin1(x)))

