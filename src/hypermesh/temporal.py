"""Temporal motion prior extraction.

Pose stream: frame differences + sequence average -> GRU -> per-frame motion
code. Feature stream: split at the middle frame, one GRU per half, concat,
Euclidean multi-head self-attention (``layers.EuclideanAttention``). The
fused prior is the attention output plus a learned projection of the pose
motion codes. A GRU records one tape node per sequence.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .layers import EuclideanAttention, Linear, _uniform
from .module import Module
from .tensor import Tensor


class GruCell(Module):
    """Single-layer GRU over a [T, input] sequence, zero initial state.

    Gate convention: z = sigmoid, r = sigmoid, candidate = tanh,
    h' = (1 - z) * candidate + z * h.

    The sequence is one ``gru`` node over the input and the nine parameters.
    Its results equal those of the composed ops, 17 nodes a step, bit for
    bit. Each step keeps the composed ops' rounding order, one row product
    per gate: ``z = 1 / (1 + exp(-((h U_z^T + x_t W_z^T) + b_z)))``. The
    backward walks the steps from last to first and sums as the tape did.
    ``h_t``'s gradient is row t of the output's, then step t+1's terms
    ``g_rh r``, ``g_r' U_r``, ``g_h z`` and ``g_z' U_z`` in turn (``'``
    marks a pre-activation). A parameter's gradient adds the steps' terms
    from the last step to the first. Row t of the input's is
    ``(g_r' W_r + g_c' W_h) + g_z' W_z``.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.w_z = _uniform(rng, (hidden_dim, input_dim))
        self.u_z = _uniform(rng, (hidden_dim, hidden_dim))
        self.b_z = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.w_r = _uniform(rng, (hidden_dim, input_dim))
        self.u_r = _uniform(rng, (hidden_dim, hidden_dim))
        self.b_r = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.w_h = _uniform(rng, (hidden_dim, input_dim))
        self.u_h = _uniform(rng, (hidden_dim, hidden_dim))
        self.b_h = Tensor(np.zeros(hidden_dim), requires_grad=True)
        self.hidden_dim = hidden_dim
        self.input_dim = input_dim

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"GRU expects [T, {self.input_dim}], got {x.shape}")
        params = (self.w_z, self.u_z, self.b_z, self.w_r, self.u_r, self.b_r,
                  self.w_h, self.u_h, self.b_h)
        w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = (p.data for p in params)
        hs, steps = [np.zeros((1, self.hidden_dim))], []
        for t in range(x.shape[0]):
            x_t, h = x.data[t:t + 1], hs[-1]
            z = 1.0 / (1.0 + np.exp(-(h @ u_z.mT + x_t @ w_z.mT + b_z)))
            r = 1.0 / (1.0 + np.exp(-(h @ u_r.mT + x_t @ w_r.mT + b_r)))
            rh = r * h
            c = np.tanh(rh @ u_h.mT + x_t @ w_h.mT + b_h)
            omz = 1.0 - z
            hs.append(omz * c + z * h)
            steps.append((z, r, rh, c, omz))

        def backward(g):
            w_z, u_z, _, w_r, u_r, _, w_h, u_h, _ = (p.data for p in params)
            gx = np.zeros(x.shape) if x.requires_grad else None
            sums = [None] * 9
            carry = ()
            for t in reversed(range(len(steps))):
                z, r, rh, c, omz = steps[t]
                x_t, h = x.data[t:t + 1], hs[t]
                g_h = g[t:t + 1]
                for term in carry:
                    g_h = g_h + term
                g_zpre = (-(g_h * c) + g_h * h) * z * (1.0 - z)
                g_cpre = g_h * omz * (1.0 - c * c)
                g_rh = g_cpre @ u_h
                g_rpre = g_rh * h * r * (1.0 - r)
                carry = (g_rh * r, g_rpre @ u_r, g_h * z, g_zpre @ u_z)
                if gx is not None:
                    gx[t:t + 1] += g_rpre @ w_r + g_cpre @ w_h + g_zpre @ w_z
                terms = (g_zpre.mT @ x_t, g_zpre.mT @ h, g_zpre.sum(axis=0),
                         g_rpre.mT @ x_t, g_rpre.mT @ h, g_rpre.sum(axis=0),
                         g_cpre.mT @ x_t, g_cpre.mT @ rh, g_cpre.sum(axis=0))
                sums = [d if s is None else s + d for s, d in zip(sums, terms)]
            return (gx, *sums)

        return T._make(np.concatenate(hs[1:]), "gru", (x, *params), backward)


class PoseMotionExtractor(Module):
    """Pose-difference + average stream through a GRU; output is [T, J, 3].

    Frame 0 of the difference stream is zero-padded so the sequence keeps
    all T frames; the concat of diff and average happens on the per-joint
    coordinate axis (3 + 3 = 6) before frames are flattened for the GRU.
    """

    def __init__(self, n_joints: int, rng: np.random.Generator):
        self.gru = GruCell(6 * n_joints, 3 * n_joints, rng)
        self.n_joints = n_joints

    def __call__(self, poses: Tensor) -> Tensor:
        if poses.ndim != 3 or poses.shape[1] != self.n_joints or poses.shape[2] != 3:
            raise ShapeError(f"expected [T, {self.n_joints}, 3], got {poses.shape}")
        t_frames = poses.shape[0]
        if t_frames < 2:
            raise ContractError(f"need at least 2 frames, got {t_frames}")
        diff = T.concat(
            [Tensor(np.zeros((1, self.n_joints, 3))), poses[1:] - poses[:-1]], axis=0)
        avg = T.broadcast_to(poses.mean(axis=0, keepdims=True), poses.shape)
        cont = T.concat([diff, avg], axis=-1).reshape(t_frames, 6 * self.n_joints)
        out = self.gru(cont)
        return out.reshape(t_frames, self.n_joints, 3)


class TemporalPriorExtractor(Module):
    """Fuses the feature and pose streams into the temporal motion prior.

    The two sequence halves get separate (untied) GRUs. The pose motion
    codes are reconciled to the feature width with a learned [3J -> D_f]
    projection before the addition.
    """

    def __init__(self, n_joints: int, feat_dim: int, heads: int,
                 rng: np.random.Generator):
        self.pose_motion = PoseMotionExtractor(n_joints, rng)
        self.gru_bef = GruCell(feat_dim, feat_dim, rng)
        self.gru_aft = GruCell(feat_dim, feat_dim, rng)
        self.msa = EuclideanAttention(feat_dim, heads, rng)
        self.motion_proj = Linear(3 * n_joints, feat_dim, rng)

    def __call__(self, poses: Tensor, feats: Tensor) -> tuple[Tensor, Tensor]:
        """Fused prior tm_pr [T, D_f] and pose motion codes p_motion [T, J, 3]."""
        p_motion = self.pose_motion(poses)
        t_frames = poses.shape[0]
        if feats.shape[0] != t_frames:
            raise ShapeError(f"pose/feature frame counts differ: {t_frames} vs {feats.shape[0]}")
        if t_frames % 2 != 0:
            raise ContractError(f"sequence length must be even, got {t_frames}")
        half = t_frames // 2
        tf_bef = self.gru_bef(feats[:half])
        tf_aft = self.gru_aft(feats[half:])
        tf_cont = T.concat([tf_bef, tf_aft], axis=0)
        mixed = self.msa(tf_cont)
        tm_pr = mixed + self.motion_proj(p_motion.reshape(t_frames, -1))
        return tm_pr, p_motion
