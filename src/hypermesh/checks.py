"""Runnable property and gradient suites.

The numpy reference functions here are deliberately independent of the
autodiff path: they re-evaluate the defining formulas per vector / per time
step / per face with plain numpy, and serve as oracles for the vectorized
Tensor implementations.

The gradcheck registry has one row constructor, ``_entry``; only the
end-to-end loss's row calls ``gradcheck`` itself.
"""

from __future__ import annotations

import math
import zlib
from functools import partial
from typing import Callable

import numpy as np

from . import tensor as T
from .gradcheck import GradcheckReport, gradcheck
from .layers import (AttentionWeights, EuclideanAttention, HyperAdaLN, HyperAttention,
                     HyperbolicLinear, HyperFFN, attention, hyper_gelu)
from .manifold import (BallParams, DEFAULT_PARAMS, expmap0, logmap0, mobius_add,
                       mobius_matvec, project_to_ball)
from .temporal import GruCell, PoseMotionExtractor
from .tensor import Tensor

# ---------------------------------------------------------------------------
# reference (oracle) implementations, plain numpy, loop-based
# ---------------------------------------------------------------------------


def np_safe_norm(v: np.ndarray, eps: float) -> float:
    return math.sqrt(float((v * v).sum()) + eps * eps)


def np_project(v: np.ndarray, p: BallParams = DEFAULT_PARAMS) -> np.ndarray:
    n = math.sqrt(float((v * v).sum()))
    limit = 1.0 - p.eps_ball
    if n > limit:
        return v * (limit / n)
    return v


def np_expmap0(v: np.ndarray, p: BallParams = DEFAULT_PARAMS) -> np.ndarray:
    n = np_safe_norm(v, p.eps_norm)
    return np_project(v * (math.tanh(0.5 * n) / n), p)


def np_logmap0(x: np.ndarray, p: BallParams = DEFAULT_PARAMS) -> np.ndarray:
    n = np_safe_norm(x, p.eps_norm)
    return x * (2.0 * math.atanh(n) / n)


def np_mobius_add(x: np.ndarray, y: np.ndarray,
                  p: BallParams = DEFAULT_PARAMS) -> np.ndarray:
    xy = float((x * y).sum())
    x2 = float((x * x).sum())
    y2 = float((y * y).sum())
    num = (1.0 + 2.0 * xy + y2) * x + (1.0 - x2) * y
    den = 1.0 + 2.0 * xy + x2 * y2
    return np_project(num / den, p)


def np_mobius_matvec(w: np.ndarray, x: np.ndarray,
                     p: BallParams = DEFAULT_PARAMS) -> np.ndarray:
    y = w @ x
    nx = np_safe_norm(x, p.eps_norm)
    ny = np_safe_norm(y, p.eps_norm)
    t = math.tanh((ny / nx) * math.atanh(nx))
    return np_project(y * (t / ny), p)


def np_gelu(x: np.ndarray) -> np.ndarray:
    # glibc's erf, element by element: not the cephes algorithm of tensor.gelu
    erf = np.vectorize(math.erf, otypes=[np.float64])
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def gru_loop_oracle(cell: GruCell, x: np.ndarray) -> np.ndarray:
    """Step-by-step GRU evaluation with explicit per-frame numpy math."""

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    wz, uz, bz = cell.w_z.data, cell.u_z.data, cell.b_z.data
    wr, ur, br = cell.w_r.data, cell.u_r.data, cell.b_r.data
    wh, uh, bh = cell.w_h.data, cell.u_h.data, cell.b_h.data
    h = np.zeros(cell.hidden_dim)
    out = []
    for t in range(x.shape[0]):
        xt = x[t]
        z = sig(wz @ xt + uz @ h + bz)
        r = sig(wr @ xt + ur @ h + br)
        cand = np.tanh(wh @ xt + uh @ (r * h) + bh)
        h = (1.0 - z) * cand + z * h
        out.append(h.copy())
    return np.stack(out)


def _loop_attention(att: AttentionWeights, q: np.ndarray, k: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    """Rows W_O ctx_i of multi-head attention of rows q over rows k, v, with
    explicit i, j, head loops."""
    heads, d = att.heads, att.dim
    hd = d // heads
    out = np.zeros((q.shape[0], d))
    for i in range(q.shape[0]):
        ctx = np.zeros(d)
        for h in range(heads):
            sl = slice(h * hd, (h + 1) * hd)
            scores = np.array([float(q[i, sl] @ k[j, sl]) / math.sqrt(hd)
                               for j in range(k.shape[0])])
            scores -= scores.max()
            alpha = np.exp(scores)
            alpha /= alpha.sum()
            for j in range(k.shape[0]):
                ctx[sl] += alpha[j] * v[j, sl]
        out[i] = att.w_o.data @ ctx
    return out


def hyper_attention_oracle(att: HyperAttention, q_src: np.ndarray,
                           k_src: np.ndarray) -> np.ndarray:
    """Brute-force hyperbolic attention: per-row Möbius Q/K/V and expmap0."""
    lq = np.stack([np_logmap0(np_mobius_matvec(att.w_q.data, q)) for q in q_src])
    lk = np.stack([np_logmap0(np_mobius_matvec(att.w_k.data, k)) for k in k_src])
    lv = np.stack([np_logmap0(np_mobius_matvec(att.w_v.data, k)) for k in k_src])
    return np.stack([np_expmap0(y) for y in _loop_attention(att, lq, lk, lv)])


def euclidean_attention_oracle(att: EuclideanAttention,
                               x: np.ndarray) -> np.ndarray:
    return _loop_attention(att, x @ att.w_q.data.T, x @ att.w_k.data.T,
                           x @ att.w_v.data.T)


def adaln_oracle(layer: HyperAdaLN, x: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """logmap0 -> AdaLN -> expmap0, composed one explicit step at a time."""
    gamma = layer.gamma_proj.w.data @ cond + layer.gamma_proj.b.data
    beta = layer.beta_proj.w.data @ cond + layer.beta_proj.b.data
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        t = np_logmap0(x[i])
        mu = t.mean()
        var = ((t - mu) ** 2).mean()
        t_hat = (t - mu) / math.sqrt(var + layer.eps_var)
        out[i] = np_expmap0(gamma * t_hat + beta)
    return out


def losses_loop_oracle(pred_fine, gt_fine, pred_coarse, gt_coarse,
                       regressor_matrix, edges, faces) -> dict:
    """Mesh/joint/normal/edge losses with explicit python loops."""
    v = pred_fine.shape[0]
    l_mesh = sum(float(np.abs(pred_fine[i] - gt_fine[i]).sum()) for i in range(v)) / v
    pj = regressor_matrix @ pred_fine
    gj = regressor_matrix @ gt_fine
    l_joint = sum(float(np.abs(pj[i] - gj[i]).sum()) for i in range(pj.shape[0])) / pj.shape[0]

    terms = []
    for f in faces:
        a, b, c = gt_fine[f[0]], gt_fine[f[1]], gt_fine[f[2]]
        n = np.cross(b - a, c - a)
        area = float(np.linalg.norm(n))
        if area <= 1e-12:
            continue
        n_hat = n / area
        total = 0.0
        for i, j in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            e = pred_fine[j] - pred_fine[i]
            e_hat = e / math.sqrt(float((e * e).sum()) + 1e-24)
            total += abs(float(e_hat @ n_hat))
        terms.append(total)
    l_normal = float(np.mean(terms)) if terms else 0.0

    diffs = []
    for a, b in edges:
        lp = math.sqrt(float(((pred_coarse[a] - pred_coarse[b]) ** 2).sum()) + 1e-24)
        lg = math.sqrt(float(((gt_coarse[a] - gt_coarse[b]) ** 2).sum()) + 1e-24)
        diffs.append(abs(lp - lg))
    l_edge = float(np.mean(diffs)) if diffs else 0.0
    return {"mesh": l_mesh, "joint": l_joint, "normal": l_normal, "edge": l_edge}


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def random_ball_points(rng: np.random.Generator, shape, max_norm: float = 0.9,
                       min_norm: float = 0.0) -> np.ndarray:
    """Uniform-direction points with norms in [min_norm, max_norm]."""
    v = rng.normal(size=shape)
    n = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    radii = rng.uniform(min_norm, max_norm, size=n.shape)
    return v / np.maximum(n, 1e-30) * radii


# ---------------------------------------------------------------------------
# property checks, grouped by module
# ---------------------------------------------------------------------------


def _below(figure: str, value: float, bound: float) -> None:
    """A check's one failure path: a raise, which ``python -O`` keeps."""
    if not value < bound:
        raise AssertionError(f"{figure} = {float(value)!r}, not below {float(bound)!r}")


def check_manifold_identities(cases: int = 1000, seed: int = 0,
                              tol: float = 1e-9) -> int:
    """Möbius identities and exp/log round trips, including near-boundary norms.

    The x operand sweeps up to 1 - 2*eps_ball; the free operand of the
    cancellation identity stays at norm <= 0.3 so the intermediate sum is
    not boundary-clamped (clamping there would void the exact identity).
    """
    rng = np.random.default_rng(seed)
    hi = 1.0 - 2.0 * DEFAULT_PARAMS.eps_ball
    dims = rng.integers(2, 9, size=cases)
    for i in range(cases):
        n = int(dims[i])
        x = random_ball_points(rng, (n,), max_norm=hi)
        y_small = random_ball_points(rng, (n,), max_norm=0.3)
        zero = Tensor(np.zeros(n))
        xt, yt = Tensor(x), Tensor(y_small)

        _below("max |x (+) 0 - x|", np.abs(mobius_add(xt, zero).data - x).max(), tol)
        _below("max |0 (+) x - x|", np.abs(mobius_add(zero, xt).data - x).max(), tol)
        z = mobius_add(xt, yt)
        back = mobius_add(Tensor(-x), z)
        _below("max |-x (+) (x (+) y) - y|", np.abs(back.data - y_small).max(), tol)
        _below("max |-x (+) x|", np.abs(mobius_add(Tensor(-x), xt).data).max(), tol)
        _below("max |I(x)x - x|", np.abs(mobius_matvec(Tensor(np.eye(n)), xt).data - x).max(), tol)

        v = rng.normal(size=n)
        vn = np.linalg.norm(v)
        if vn > 5.0:
            v *= rng.uniform(0.0, 5.0) / vn
        rt = logmap0(expmap0(Tensor(v)))
        _below("max |logmap0(expmap0(v)) - v|", np.abs(rt.data - v).max(), tol)
        x_mod = random_ball_points(rng, (n,), max_norm=0.999)
        rt2 = expmap0(logmap0(Tensor(x_mod)))
        _below("max |expmap0(logmap0(x)) - x|", np.abs(rt2.data - x_mod).max(), tol)
    return cases


def check_matvec_formulations(cases: int = 1000, seed: int = 1,
                              tol: float = 1e-8) -> int:
    """mobius_matvec must coincide with expmap0(W . logmap0(x))."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        w = rng.normal(size=(m, n))
        x = random_ball_points(rng, (n,), max_norm=0.99)
        direct = mobius_matvec(Tensor(w), Tensor(x)).data
        tangent = logmap0(Tensor(x)).reshape(1, n) @ Tensor(w.T)
        via_maps = expmap0(tangent).data.reshape(m)
        _below("max |W(x)x - expmap0(W logmap0(x))|", np.abs(direct - via_maps).max(), tol)
    return cases


def check_ball_closure(cases: int = 200, seed: int = 2) -> int:
    """All producing ops keep norms <= 1 - eps_ball, incl. near-boundary inputs."""
    rng = np.random.default_rng(seed)
    limit = 1.0 - DEFAULT_PARAMS.eps_ball + 1e-12
    for _ in range(cases):
        n = int(rng.integers(2, 8))
        hi = 1.0 - 2.0 * DEFAULT_PARAMS.eps_ball
        x = Tensor(random_ball_points(rng, (4, n), min_norm=0.5, max_norm=hi))
        y = Tensor(random_ball_points(rng, (4, n), min_norm=0.5, max_norm=hi))
        w = Tensor(rng.normal(size=(n, n)) * 2.0)
        v = Tensor(rng.normal(size=(4, n)) * 10.0)
        for out in (mobius_add(x, y), mobius_matvec(w, x), expmap0(v),
                    project_to_ball(Tensor(rng.normal(size=(4, n)) * 3.0))):
            norms = np.sqrt((out.data ** 2).sum(axis=-1))
            _below("max norm", norms.max(), limit)
    return cases


def check_noncommutativity(cases: int = 1000, seed: int = 4) -> int:
    """Möbius addition is not commutative; a witness must exist."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(cases):
        x = Tensor(random_ball_points(rng, (3,), max_norm=0.9))
        y = Tensor(random_ball_points(rng, (3,), max_norm=0.9))
        d = np.abs(mobius_add(x, y).data - mobius_add(y, x).data).max()
        best = max(best, float(d))
    _below("-max |x (+) y - y (+) x|", -best, -1e-3)  # a witness above 1e-3
    return cases


def check_attention_oracle(cases: int = 20, seed: int = 5, tol: float = 1e-9) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        att = HyperAttention(8, 2, rng)
        q = random_ball_points(rng, (4, 8), max_norm=0.7)
        k = random_ball_points(rng, (5, 8), max_norm=0.7)
        got = att(Tensor(q), Tensor(k)).data
        want = hyper_attention_oracle(att, q, k)
        _below("max |attention - loop oracle|", np.abs(got - want).max(), tol)
    return cases


def check_gru_oracle(cases: int = 20, seed: int = 6, tol: float = 1e-10) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        cell = GruCell(6, 4, rng)
        x = rng.normal(size=(5, 6))
        got = cell(Tensor(x)).data
        want = gru_loop_oracle(cell, x)
        _below("max |GRU - loop oracle|", np.abs(got - want).max(), tol)
    return cases


def check_adaln_oracle(cases: int = 20, seed: int = 7, tol: float = 1e-10) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        layer = HyperAdaLN(8, 6, rng)
        x = random_ball_points(rng, (5, 8), max_norm=0.8)
        cond = rng.normal(size=6)
        got = layer(Tensor(x), Tensor(cond[None])).data
        want = adaln_oracle(layer, x, cond)
        _below("max |AdaLN - composition oracle|", np.abs(got - want).max(), tol)
    return cases


def check_attention_permutation(cases: int = 20, seed: int = 8) -> int:
    """Key permutation leaves outputs fixed; query permutation permutes them."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        att = HyperAttention(8, 2, rng)
        q = Tensor(random_ball_points(rng, (4, 8), max_norm=0.7))
        k = random_ball_points(rng, (5, 8), max_norm=0.7)
        perm = rng.permutation(5)
        out1 = att(q, Tensor(k)).data
        out2 = att(q, Tensor(k[perm])).data
        _below("max |keys permuted - unpermuted|", np.abs(out1 - out2).max(), 1e-12)
        qperm = rng.permutation(4)
        out3 = att(Tensor(q.data[qperm]), Tensor(k)).data
        _below("max |queries permuted - outputs permuted|", np.abs(out1[qperm] - out3).max(), 1e-12)
    return cases


PROPCHECKS: dict[str, list[tuple[str, Callable[..., int]]]] = {
    "manifold": [
        ("mobius_identities", check_manifold_identities),
        ("matvec_two_formulations", check_matvec_formulations),
        ("ball_closure", check_ball_closure),
        ("noncommutativity_witness", check_noncommutativity),
    ],
    "hyperlayers": [
        ("attention_vs_loop_oracle", check_attention_oracle),
        ("adaln_vs_composition_oracle", check_adaln_oracle),
        ("attention_permutation", check_attention_permutation),
    ],
    "temporal": [
        ("gru_vs_loop_oracle", check_gru_oracle),
    ],
}


def run_propchecks(module: str | None = None, cases: int | None = None) -> list[dict]:
    rows = []
    for mod, entries in PROPCHECKS.items():
        if module is not None and mod != module:
            continue
        for name, fn in entries:
            try:
                ran = fn(cases) if cases is not None else fn()
                rows.append({"module": mod, "check": name, "cases": ran, "passed": True})
            except AssertionError as exc:
                rows.append({"module": mod, "check": name, "cases": 0,
                             "passed": False, "detail": str(exc)})
    return rows


# ---------------------------------------------------------------------------
# gradcheck registry
# ---------------------------------------------------------------------------


def _projected(fn: Callable[..., Tensor], rng: np.random.Generator):
    """``fn`` summed against fixed random weights: a scalar whose gradient
    checks every entry of ``fn``'s output."""
    seed = int(rng.integers(2 ** 63))

    def scalar(*args):
        out = fn(*args)
        # a fresh generator per call, so every evaluation sees the same weights
        return (out * Tensor(np.random.default_rng(seed).normal(size=out.shape))).sum()
    return scalar


def _entry(module: str, name: str, tol: float, draw, max_entries: int | None = None):
    """The registry's one row constructor: ``draw(rng)`` gives ``(fn, inputs)``,
    and the row checks ``_projected(fn)`` in all of ``inputs``."""
    def build(rng):
        fn, inputs = draw(rng)
        return gradcheck(_projected(fn, rng), inputs, tol=tol, max_entries=max_entries, rng=rng)
    return (module, name, build)


def _primitive_entries():
    def entry(name, fn, *shapes, low=-1.0, high=1.0):
        return _entry("tensor-autodiff", name, 1e-6, lambda rng: (
            fn, [Tensor(rng.uniform(low, high, size=s)) for s in shapes]))

    yield entry("add_broadcast", lambda a, b: a + b, (3, 4), (4,))
    yield entry("sub", lambda a, b: a - b, (3, 4), (3, 4))
    yield entry("mul", lambda a, b: a * b, (3, 4), (3, 4))
    yield entry("div", lambda a, b: a / (b + 3.0), (3, 4), (3, 4))
    yield entry("matmul", lambda a, b: a @ b, (3, 4), (4, 2))
    yield entry("matmul_batched", lambda a, b: a @ b, (2, 3, 4), (2, 4, 2))
    yield entry("linear", T.linear, (2, 3, 4), (5, 4), (5,))
    yield entry("linear_blocks", T.linear, (2, 2, 3, 4), (2, 5, 4), (2, 1, 5))
    yield entry("reshape", lambda a: a.reshape(4, 3), (3, 4))
    yield entry("concat", lambda a, b: T.concat([a, b], axis=1), (3, 2), (3, 4))
    yield entry("slice", lambda a: a[1:, ::2], (4, 6))
    yield entry("sum_axis", lambda a: a.sum(axis=0), (3, 4))
    yield entry("mean_axis", lambda a: a.mean(axis=1, keepdims=True), (3, 4))
    yield entry("broadcast", lambda a: T.broadcast_to(a, (5, 3, 4)), (3, 4))
    yield entry("tanh", T.tanh, (3, 4))
    yield entry("sigmoid", T.sigmoid, (3, 4))
    yield entry("gelu", T.gelu, (3, 4), low=-2.0, high=2.0)
    yield entry("abs", lambda a: T.tabs(a + 3.0), (3, 4))
    yield entry("attention", lambda q, k, v: attention(q, k, v, 2), (3, 4, 6), (3, 5, 6), (3, 5, 6))
    yield entry("l2norm", lambda a: T.l2norm(a, eps=1e-6), (3, 4))
    # frames [2, 3, 4]; row [1, 2] is scaled to a variance below eps
    low_var = np.ones((2, 3, 1))
    low_var[1, 2] = 1e-3
    yield entry("normalize", lambda a: T.normalize(a * low_var, 1e-5), (2, 3, 4))


def _layer_entries():
    """Ball ops and layers; each row draws its inputs in order.

    The ``*_clamped`` entries put rows past the 1 - eps_ball shell, so that
    the clamp's radial-projection Jacobian is checked; every such input keeps
    at least 5 % away from the clamp's kink, where central differences would
    straddle it. The ``*_frames`` entries add a leading frame axis, as the
    pipeline runs the layers: token rows [T, n, D], condition [T, 1, D_f].
    """

    def ball(shape, hi=0.6, lo=0.0):
        return lambda rng: Tensor(random_ball_points(rng, shape, min_norm=lo, max_norm=hi))

    def normal(shape, scale=1.0):
        return lambda rng: Tensor(rng.normal(size=shape) * scale)

    def op(name, fn, *draws):
        return _entry("hyperlayers", name, 1e-4, lambda rng: (fn, [d(rng) for d in draws]))

    def layer(name, make, *draws, module="hyperlayers"):
        # the layer first, then its inputs; checked in its inputs and all its parameters
        def draw(rng):
            m = make(rng)
            return (lambda *args: m(*args[:len(draws)]), [d(rng) for d in draws] + m.parameters())
        return _entry(module, name, 1e-4, draw)

    def draw_add_clamped(rng):
        # x (+) y for x, y near-collinear at norm 0.999 lands ~5e-7 from the
        # unit sphere, past the shell; the other rows stay inside
        x, y = ball((4, 3), 0.6, 0.1)(rng), ball((4, 3), 0.6, 0.1)(rng)
        u = rng.normal(size=3)
        for t in (x, y):
            v = u + rng.normal(size=3) * 1e-3
            t.data[0] = 0.999 * v / np.linalg.norm(v)
        return (mobius_add, [x, y])

    def draw_matvec_clamped(rng):
        # gain ~4: a row of norm 0.95 maps to tanh(~7.3), past the shell
        # (the kink is at tanh(6.1)); rows of norm <= 0.3 stay inside
        w = Tensor(4.0 * np.eye(3) + rng.normal(size=(3, 3)) * 0.05)
        x = ball((4, 3), 0.3, 0.1)(rng)
        x.data[0] = random_ball_points(rng, (3,), min_norm=0.95, max_norm=0.95)
        return (mobius_matvec, [w, x])

    def linear_layer(rng):
        lin = HyperbolicLinear(3, 5, rng)
        lin.b.data = random_ball_points(rng, (5,), max_norm=0.3)
        return lin

    yield op("mobius_add", mobius_add, ball((4, 3)), ball((4, 3)))
    yield op("expmap0", expmap0, normal((4, 3)))
    yield op("logmap0", logmap0, ball((4, 3)))
    yield op("mobius_matvec", mobius_matvec, normal((5, 3), 0.5), ball((4, 3)))
    # a weight slice per block: w [2, 5, 3] against rows [T, 2, 4, 3]
    yield op("mobius_matvec_blocks", mobius_matvec, normal((2, 5, 3), 0.5), ball((3, 2, 4, 3)))
    yield op("project_to_ball_clamped", project_to_ball, ball((4, 3), 3.0, 1.2))
    # tanh(n/2) passes 1 - eps_ball at n ~ 12.2
    yield op("expmap0_clamped", expmap0, ball((4, 3), 30.0, 15.0))
    yield _entry("hyperlayers", "mobius_add_clamped", 1e-4, draw_add_clamped)
    yield _entry("hyperlayers", "mobius_matvec_clamped", 1e-4, draw_matvec_clamped)
    yield layer("hyper_attention_frames", partial(HyperAttention, 8, 2),
                ball((3, 4, 8)), ball((3, 5, 8)))
    yield layer("hyper_adaln_frames", partial(HyperAdaLN, 8, 6), ball((3, 4, 8)), normal((3, 1, 6)))
    yield layer("hyperbolic_linear", linear_layer, ball((4, 3)))
    yield op("hyper_gelu", hyper_gelu, ball((4, 3)))
    yield layer("hyper_adaln", partial(HyperAdaLN, 8, 6), ball((4, 8)), normal((1, 6)))
    yield layer("hyper_attention", partial(HyperAttention, 8, 2), ball((4, 8)), ball((5, 8)))
    yield layer("hyper_ffn", partial(HyperFFN, 6), ball((4, 6)))
    yield layer("gru_cell", partial(GruCell, 4, 3), normal((4, 4)), module="temporal")
    yield layer("euclidean_attention", partial(EuclideanAttention, 8, 2), normal((4, 8)),
                module="temporal")
    yield layer("pose_motion_extract", partial(PoseMotionExtractor, 3), normal((4, 3, 3), 0.3),
                module="temporal")


def _block_entries():
    from .config import PipelineConfig
    from .synth import synth_generate
    from .train import build_pipeline, scene_loss

    cfg = PipelineConfig(t_frames=4, n_joints=3, feat_dim=8, model_dim=8,
                         heads=2, n_coarse=6, n_fine=10, seed=11, steps=0)

    def draw_pair(rng, lead=()):
        # both blocks in one call; lead=(T,) adds frames: cond [T, 1, 1, D_f], pose [T, 2, J, 3]
        block = build_pipeline(cfg, synth_generate(cfg)).blocks
        tm_row = Tensor(rng.normal(size=lead + (1,) * (len(lead) + 1) + (cfg.feat_dim,)) * 0.2)
        pose = Tensor(rng.normal(size=lead + (2, cfg.n_joints, 3)) * 0.3)
        m_init = Tensor(rng.normal(size=(cfg.n_coarse, 3)) * 0.3)
        return (lambda mi, tr, po, *params: block(mi, tr, po),
                [m_init, tm_row, pose] + block.parameters())

    def run_total_loss(rng):
        scene = synth_generate(cfg)
        pipeline = build_pipeline(cfg, scene)
        params = pipeline.parameters()
        subset = [params[i] for i in rng.choice(len(params), size=6, replace=False)]
        return gradcheck(lambda *ps: scene_loss(pipeline, scene, cfg),
                         subset, tol=1e-3, max_entries=2, rng=rng)

    for name, lead in (("block_pair", ()), ("block_pair_frames", (cfg.t_frames,))):
        yield _entry("mesh-pipeline", name, 1e-3, partial(draw_pair, lead=lead), max_entries=3)
    yield ("mesh-pipeline", "total_loss_end_to_end", run_total_loss)


def gradcheck_registry() -> list[tuple[str, str, Callable[..., GradcheckReport]]]:
    """Rows ``(module, name, build)``: ``build(rng)`` draws its inputs from
    ``rng`` and returns the gradcheck's report, which holds the entry's tolerance."""
    return [*_primitive_entries(), *_layer_entries(), *_block_entries()]


def run_gradchecks(module: str | None = None) -> list[dict]:
    rows = []
    for mod, name, build in gradcheck_registry():
        if module is not None and mod != module:
            continue
        # seeded from the name alone: a filtered run checks the same inputs
        # as a full one
        report = build(np.random.default_rng(zlib.crc32(name.encode())))
        rows.append({"module": mod, "check": name, "tol": report.tol,
                     "max_rel_err": report.max_rel_err, "passed": report.passed})
    return rows
