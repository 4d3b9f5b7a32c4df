"""Evaluation metrics: MPJPE, PA-MPJPE, MPVPE, acceleration error.

Inputs are meter-valued [T, N, 3] arrays; outputs are millimeters
(mm/frame^2 for the acceleration error). Pure numpy, no gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor_io import atomic_write

M_TO_MM = 1000.0


def _checked(pred, gt, name) -> tuple[np.ndarray, np.ndarray]:
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"{name}: shapes differ, {pred.shape} vs {gt.shape}")
    if pred.ndim != 3:
        raise ShapeError(f"{name}: expected [T, N, 3], got {pred.shape}")
    return pred, gt


def root_center(joints: np.ndarray, root_idx: int = 0) -> np.ndarray:
    return joints - joints[:, root_idx:root_idx + 1, :]


def similarity_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Optimal similarity transform (scale, rotation, translation) of pred onto gt.

    Classic orthogonal-Procrustes-with-scale solution via SVD of the
    cross-covariance; works on [..., N, 3], one fit per leading index.
    """
    mu_p = pred.mean(axis=-2, keepdims=True)
    mu_g = gt.mean(axis=-2, keepdims=True)
    xc = pred - mu_p
    yc = gt - mu_g
    h = np.swapaxes(xc, -1, -2) @ yc
    u, s, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    diag = np.ones(s.shape)
    diag[..., -1] = np.sign(np.linalg.det(v @ ut))
    rot = v @ (diag[..., :, None] * ut)
    denom = (xc * xc).sum(axis=(-2, -1))
    scale = np.divide((s * diag).sum(axis=-1), denom, out=np.ones_like(denom),
                      where=denom > 0)
    return scale[..., None, None] * xc @ np.swapaxes(rot, -1, -2) + mu_g


def _frame_mpjpe(pred_joints, gt_joints, root_idx: int) -> np.ndarray:
    pred, gt = _checked(pred_joints, gt_joints, "mpjpe")
    err = np.linalg.norm(root_center(pred, root_idx) - root_center(gt, root_idx), axis=-1)
    return err.mean(axis=-1) * M_TO_MM


def _frame_pa_mpjpe(pred_joints, gt_joints, root_idx: int) -> np.ndarray:
    """The similarity fit minimizes the summed squared error; on rare pairs
    that can still increase the mean L2 error, so the identity alignment is
    kept as a per-frame fallback — alignment never hurts the score."""
    pred, gt = _checked(pred_joints, gt_joints, "pa_mpjpe")
    pred_c, gt_c = root_center(pred, root_idx), root_center(gt, root_idx)
    aligned = np.linalg.norm(similarity_align(pred_c, gt_c) - gt_c, axis=-1).mean(axis=-1)
    return np.minimum(aligned * M_TO_MM, _frame_mpjpe(pred, gt, root_idx))


def _frame_mpvpe(pred_verts, gt_verts) -> np.ndarray:
    pred, gt = _checked(pred_verts, gt_verts, "mpvpe")
    return np.linalg.norm(pred - gt, axis=-1).mean(axis=-1) * M_TO_MM


def mpjpe(pred_joints, gt_joints, root_idx: int = 0) -> float:
    """Mean per-joint position error in mm, after root-joint centering."""
    return float(_frame_mpjpe(pred_joints, gt_joints, root_idx).mean())


def pa_mpjpe(pred_joints, gt_joints, root_idx: int = 0) -> float:
    """MPJPE after per-frame similarity Procrustes alignment, in mm."""
    return float(_frame_pa_mpjpe(pred_joints, gt_joints, root_idx).mean())


def mpvpe(pred_verts, gt_verts) -> float:
    """Mean per-vertex position error in mm."""
    return float(_frame_mpvpe(pred_verts, gt_verts).mean())


def accel_error(pred_joints, gt_joints) -> float:
    """Mean discrepancy of discrete second time-differences, mm/frame^2."""
    pred, gt = _checked(pred_joints, gt_joints, "accel_error")
    if pred.shape[0] < 3:
        raise ContractError("accel_error needs at least 3 frames")
    a_pred = pred[2:] - 2.0 * pred[1:-1] + pred[:-2]
    a_gt = gt[2:] - 2.0 * gt[1:-1] + gt[:-2]
    return float(np.linalg.norm(a_pred - a_gt, axis=-1).mean() * M_TO_MM)


def frame_errors(pred_joints, gt_joints, pred_verts, gt_verts,
                 root_idx: int = 0) -> dict[str, np.ndarray]:
    """Per-frame MPJPE, PA-MPJPE and MPVPE in mm, each a [T] array."""
    return {"mpjpe_mm": _frame_mpjpe(pred_joints, gt_joints, root_idx),
            "pa_mpjpe_mm": _frame_pa_mpjpe(pred_joints, gt_joints, root_idx),
            "mpvpe_mm": _frame_mpvpe(pred_verts, gt_verts)}


def write_metric_report(path, pred_joints, gt_joints, pred_verts, gt_verts,
                        root_idx: int = 0) -> dict[str, float]:
    """CSV with one row per frame plus a final sequence acceleration row.

    Returns each column's mean over the frames, and ``accel_error_mm``.
    """
    columns = frame_errors(pred_joints, gt_joints, pred_verts, gt_verts, root_idx)
    accel = accel_error(pred_joints, gt_joints)
    with atomic_write(path) as fh:
        fh.write("frame," + ",".join(columns) + "\n")
        for t, row in enumerate(zip(*columns.values())):
            fh.write(f"{t}," + ",".join(f"{v:.12g}" for v in row) + "\n")
        fh.write(f"sequence_accel_mm_per_frame2,{accel:.12g},,\n")
    return {**{k: float(v.mean()) for k, v in columns.items()}, "accel_error_mm": accel}
