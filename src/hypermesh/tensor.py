"""Dense tensors with reverse-mode automatic differentiation.

Values are float64 numpy arrays wrapped in :class:`Tensor`. Every primitive,
the affine map :func:`linear` (there is no transpose op) and the layer
normalization :func:`normalize` included, records one node and a backward
closure; ``backward()`` on a size-1 output walks the tape in reverse topological
order into the leaves (tensors made with ``requires_grad``, not by an op).
Ops take :class:`Tensor` operands: ``Tensor(...)`` converts arrays, and the
arithmetic operators convert a number or an array on either side.

A tape holds activations, never a parameter's array: a backward closure reads
an operand's values through its :class:`Tensor` when it runs, not through an
array kept from the forward. ``SGD.step`` replaces every parameter's
``.data``, and a tape kept past the step must not keep the old weights alive.

An op's output array is read-only: an in-place write into an activation
raises ``ValueError``. Not caught: a write into a leaf, or through the base of
a view (``reshape``, basic indexing). An op that returns its operand's values
unchanged tapes a view of them, so the operand stays writable.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """A dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")
    __array_ufunc__ = None  # an array on the left defers to the reflected operator

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None
        self._op = "leaf"

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from an output of size 1, of any rank.

        Accumulates into ``.grad`` of every reachable leaf with
        ``requires_grad``; gradients are kept only on leaves, never on tensors
        made by an op. Each graph node is visited exactly once.
        """
        if self.data.size != 1:
            raise ContractError("backward() requires a tensor of size 1")
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(tape_order(self)):
            g = pending.pop(id(node))
            if node._backward is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = pending.get(id(parent))
                pending[id(parent)] = pg if acc is None else acc + pg


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def tape_order(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root`` through parents that require
    grad, each once, every tensor after its parents."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return topo


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor(data)
    out.data.setflags(write=False)
    out._op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    data = a.data + b.data
    return _make(data, "add", (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    data = a.data - b.data
    return _make(data, "sub", (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    data = a.data * b.data
    return _make(data, "mul", (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a: Tensor, b) -> Tensor:
    b = as_tensor(b)
    data = a.data / b.data
    return _make(data, "div", (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                            if b.requires_grad else None))


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, "matmul", (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T (+ b)`` on the trailing axis, as one node; a weight [B, out, in]
    maps each block's slice [..., B, n, in] apart. Its gradients equal those of
    the composed transpose, matmul and add, bit for bit."""
    bias = () if b is None else (b,)
    wt = w.data.mT
    data = x.data @ wt + bias[0].data if bias else x.data @ wt

    def backward(g):
        return (_unbroadcast(g @ w.data, x.shape) if x.requires_grad else None,
                _unbroadcast(g.mT @ x.data, w.shape) if w.requires_grad else None,
                *(_unbroadcast(g, t.shape) if t.requires_grad else None for t in bias))

    return _make(data, "linear", (x, w, *bias), backward)


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = a.data.reshape(shape)
    return _make(data, "reshape", (a,), lambda g: (g.reshape(a.shape),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    data = np.broadcast_to(a.data, shape).copy()
    return _make(data, "broadcast", (a,), lambda g: (_unbroadcast(g, a.shape),))


def getitem(a: Tensor, key) -> Tensor:
    def backward(g):
        z = np.zeros(a.shape)
        np.add.at(z, key, g)  # repeated indices accumulate
        return (z,)

    return _make(a.data[key], "slice", (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(ts)))

    return _make(data, "concat", ts, backward)


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(np.asarray(data, dtype=np.float64), "sum", (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return tsum(a, axis, keepdims) * (1.0 / count)


# -- operator sugar: the methods are the functions above; the reflected forms
# convert the number they receive and swap the operands ----------------------

Tensor.__add__, Tensor.__radd__ = add, lambda a, b: add(as_tensor(b), a)
Tensor.__sub__, Tensor.__rsub__ = sub, lambda a, b: sub(as_tensor(b), a)
Tensor.__mul__, Tensor.__rmul__ = mul, lambda a, b: mul(as_tensor(b), a)
Tensor.__truediv__, Tensor.__rtruediv__ = div, lambda a, b: div(as_tensor(b), a)
Tensor.__matmul__, Tensor.__getitem__ = matmul, getitem
Tensor.reshape, Tensor.sum, Tensor.mean = reshape, tsum, tmean


# -- nonlinearities ----------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _make(data, "tanh", (a,), lambda g: (g * (1.0 - data * data),))


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _make(data, "sigmoid", (a,), lambda g: (g * data * (1.0 - data),))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# cephes ndtr.c (S. L. Moshier): erf = x T(x^2) / U(x^2) on |x| <= 1, and
# 1 - exp(-x^2) P(|x|) / Q(|x|) on 1 < |x| < 8; U and Q have a leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x: np.ndarray, acc: np.ndarray, coefs) -> np.ndarray:
    """``acc = acc * x + c`` for each coefficient in turn, in place."""
    for c in coefs:
        acc *= x
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise erf, bit for bit the cephes ``erf`` that scipy runs."""
    flat = x.reshape(-1)
    big = np.flatnonzero(np.abs(flat) > 1.0)
    s = np.clip(flat, -1.0, 1.0) if big.size else flat  # |x| > 1 is overwritten below
    z = s * s
    y = _horner(z, z * _ERF_T[0] + _ERF_T[1], _ERF_T[2:])
    y *= s  # on signed x: erf is odd and each rounding is symmetric
    y /= _horner(z, z + _ERF_U[0], _ERF_U[1:])
    if big.size:
        xb = flat[big]
        m = np.minimum(np.abs(xb), 8.0)  # erf is 1.0 in double from 8 on
        e = np.fromiter(map(math.exp, (-m * m).tolist()), np.float64, m.size)
        e *= _horner(m, m * _ERF_P[0] + _ERF_P[1], _ERF_P[2:])
        e /= _horner(m, m + _ERF_Q[0], _ERF_Q[1:])
        y[big] = np.copysign(np.where(m < 8.0, 1.0 - e, 1.0), xb)
    return y.reshape(x.shape)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x).

    ``erf`` is a numpy port of cephes ``ndtr.c``, with cephes' operation
    order, so its bits equal ``scipy.special.erf``'s. The tail's
    ``exp(-x^2)`` comes from the C library through ``math.exp``, as in
    cephes: numpy's vectorised ``np.exp`` differs from it by an ulp on a few
    inputs, and that would move training results.
    """
    phi = 0.5 * (1.0 + _erf(a.data / _SQRT2))
    data = a.data * phi

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (phi + a.data * pdf),)

    return _make(data, "gelu", (a,), backward)


def tabs(a: Tensor) -> Tensor:
    """Elementwise |x|; subgradient at 0 is 0."""
    data = np.abs(a.data)
    return _make(data, "abs", (a,), lambda g: (g * np.sign(a.data),))


def l2norm(a: Tensor, keepdims: bool = True, eps: float = 0.0) -> Tensor:
    """Smoothed Euclidean norm sqrt(sum(x^2) + eps^2) along the trailing axis."""
    sq = (a.data * a.data).sum(axis=-1, keepdims=True)
    n = np.sqrt(sq + eps * eps)
    data = n if keepdims else n[..., 0]

    def backward(g):
        gg = g if keepdims else g[..., None]
        return (gg * a.data / n,)

    return _make(data, "l2norm", (a,), backward)


def normalize(a: Tensor, eps: float) -> Tensor:
    """``(a - mean) / sqrt(var + eps)`` over the last axis, with the biased
    variance, as one node. Its backward is the layer-norm gradient (Ba et al.
    2016), in the rounding order of the composed mean, variance, sqrt and div."""
    inv_n = 1.0 / a.shape[-1]
    c = a.data - a.data.sum(axis=-1, keepdims=True) * inv_n
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) * inv_n + eps)

    def backward(g):
        g_c = g / sd
        g_sq = (-g * c / (sd * sd)).sum(axis=-1, keepdims=True) * 0.5 / sd * inv_n
        g_cc = g_sq * c + g_sq * c
        g_mu = (-g_c).sum(axis=-1, keepdims=True) + (-g_cc).sum(axis=-1, keepdims=True)
        return ((g_c + g_cc) + g_mu * inv_n,)

    return _make(c / sd, "normalize", (a,), backward)
