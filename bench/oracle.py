"""Plain-numpy forward of the whole pipeline, and the per-frame metrics.

The forward is assembled from the loop-based oracles of ``hypermesh.checks``
and reads the weights from a flat parameter dict (the checkpoint's), never
from the program's module objects or its autodiff tape. The metrics are
written here from their definitions. Together they are the reference an
``evaluate`` report is checked against.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from hypermesh.checks import (adaln_oracle, euclidean_attention_oracle,
                              gru_loop_oracle, hyper_attention_oracle,
                              np_expmap0, np_gelu, np_logmap0, np_mobius_add,
                              np_mobius_matvec)

# HyperAdaLN's variance floor (its constructor default).
ADALN_EPS_VAR = 1e-5
M_TO_MM = 1000.0


def pipeline_forward(params: dict, cfg, scene) -> np.ndarray:
    """Fine-mesh vertices [T, n_fine, 3] predicted for every frame of ``scene``."""
    ball = cfg.ball_params()
    heads = cfg.heads

    def w(name):
        return SimpleNamespace(data=params[name])

    def affine(prefix, x):
        return x @ params[prefix + "w"].T + params[prefix + "b"]

    def gru(prefix):
        names = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")
        cell = SimpleNamespace(**{n: w(prefix + n) for n in names})
        cell.hidden_dim = params[prefix + "b_z"].shape[0]
        return cell

    def attention(prefix, dim):
        return SimpleNamespace(w_q=w(prefix + "w_q"), w_k=w(prefix + "w_k"),
                               w_v=w(prefix + "w_v"), w_o=w(prefix + "w_o"),
                               heads=heads, dim=dim, params=ball)

    def adaln(prefix):
        proj = {k: SimpleNamespace(w=w(f"{prefix}{k}.w"), b=w(f"{prefix}{k}.b"))
                for k in ("gamma_proj", "beta_proj")}
        return SimpleNamespace(**proj, eps_var=ADALN_EPS_VAR, params=ball)

    def rows(fn, x, *others):
        return np.stack([fn(*r, ball) for r in zip(x, *others)])

    def hyperbolic_linear(prefix, x):
        weight, bias = params[prefix + "w"], params[prefix + "b"]
        return rows(lambda r, p: np_mobius_add(np_mobius_matvec(weight, r, p), bias, p), x)

    def ffn(prefix, x):
        h = hyperbolic_linear(prefix + "lin1.", x)
        h = rows(lambda r, p: np_expmap0(np_gelu(np_logmap0(r, p)), p), h)
        return hyperbolic_linear(prefix + "lin2.", h)

    def block(prefix, template, cond, pose):
        dim = params[prefix + "pos_mesh"].shape[1]
        mesh = affine(prefix + "embed_mesh.", template) + params[prefix + "pos_mesh"]
        keys = affine(prefix + "embed_pose.", pose) + params[prefix + "pos_pose"]
        m_hat = rows(np_expmap0, mesh)
        p_hat = rows(np_expmap0, keys)
        m_mix = adaln_oracle(adaln(prefix + "adaln_in."), m_hat, cond)
        cross = hyper_attention_oracle(attention(prefix + "cross_att.", dim), m_mix, p_hat)
        x_pm = rows(np_mobius_add, cross, m_mix)
        x_ada = adaln_oracle(adaln(prefix + "adaln_mid."), x_pm, cond)
        x_m = rows(np_mobius_add, ffn(prefix + "ffn_mid.", x_ada), x_pm)
        own = hyper_attention_oracle(attention(prefix + "self_att.", dim), x_m, x_m)
        x_p = rows(np_mobius_add, own, x_m)
        x_out = adaln_oracle(adaln(prefix + "adaln_out."), x_p, cond)
        m_ref = rows(np_mobius_add, ffn(prefix + "ffn_out.", x_out), x_p)
        return affine(prefix + "head.", rows(np_logmap0, m_ref))

    poses, feats = scene.poses, scene.feats
    t_frames, n_joints = poses.shape[:2]
    diff = np.concatenate([np.zeros((1, n_joints, 3)), poses[1:] - poses[:-1]])
    avg = np.broadcast_to(poses.mean(axis=0, keepdims=True), poses.shape)
    stream = np.concatenate([diff, avg], axis=-1).reshape(t_frames, 6 * n_joints)
    p_motion = gru_loop_oracle(gru("prior.pose_motion.gru."), stream)
    half = t_frames // 2
    tf = np.concatenate([gru_loop_oracle(gru("prior.gru_bef."), feats[:half]),
                         gru_loop_oracle(gru("prior.gru_aft."), feats[half:])])
    mixed = euclidean_attention_oracle(attention("prior.msa.", feats.shape[1]), tf)
    tm_pr = mixed + affine("prior.motion_proj.", p_motion)
    p_motion = p_motion.reshape(t_frames, n_joints, 3)

    template = params["template"]
    upsampler = scene.topology.upsampler
    out = []
    for t in range(t_frames):
        m_p = block("hpo.", template, tm_pr[t], poses[t])
        m_m = block("hmo.", template, tm_pr[t], p_motion[t])
        out.append(upsampler @ (m_p + m_m))
    return np.stack(out)


def _similarity_aligned(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Umeyama's least-squares similarity transform of ``pred`` onto ``gt``."""
    mu_p, mu_g = pred.mean(axis=0), gt.mean(axis=0)
    x, y = pred - mu_p, gt - mu_g
    u, s, vt = np.linalg.svd(y.T @ x / len(x))
    d = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[-1] = -1.0
    rot = u @ np.diag(d) @ vt
    var_x = (x * x).sum() / len(x)
    scale = (s * d).sum() / var_x if var_x > 0 else 1.0
    return scale * x @ rot.T + mu_g


def frame_metrics(pred_fine: np.ndarray, scene, root: int) -> dict:
    """Per-frame MPJPE, PA-MPJPE and MPVPE, and the sequence acceleration error.

    PA-MPJPE keeps the unaligned error when the least-squares alignment
    would raise the mean distance, as ``hypermesh.metrics.pa_mpjpe`` documents.
    """
    pred_joints = np.einsum("jf,tfx->tjx", scene.regressor.matrix, pred_fine)
    gt_joints = scene.poses
    out = []
    for t in range(len(pred_fine)):
        pj = pred_joints[t] - pred_joints[t, root]
        gj = gt_joints[t] - gt_joints[t, root]
        plain = np.linalg.norm(pj - gj, axis=1).mean()
        aligned = np.linalg.norm(_similarity_aligned(pj, gj) - gj, axis=1).mean()
        out.append({"frame": t,
                    "mpjpe_mm": plain * M_TO_MM,
                    "pa_mpjpe_mm": min(plain, aligned) * M_TO_MM,
                    "mpvpe_mm": np.linalg.norm(pred_fine[t] - scene.fine_meshes[t],
                                               axis=1).mean() * M_TO_MM})
    acc_p = pred_joints[2:] - 2.0 * pred_joints[1:-1] + pred_joints[:-2]
    acc_g = gt_joints[2:] - 2.0 * gt_joints[1:-1] + gt_joints[:-2]
    accel = np.linalg.norm(acc_p - acc_g, axis=-1).mean() * M_TO_MM
    return {"rows": out, "accel_mm": float(accel)}
