"""Training losses: Euclidean mesh/joint/normal/edge terms plus the
hyperbolic mesh loss computed after lifting both vertex sets onto the ball,
weighted in the total by the config's five ``lambda_*`` fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import PipelineConfig
from .errors import ContractError, ShapeError
from .manifold import expmap0
from .pipeline import MeshTopology
from .tensor import Tensor


@dataclass
class JointRegressor:
    """Row-stochastic map [J, n_fine] from fine vertices to joints."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ShapeError("joint regressor must be 2-D")
        if not np.all(np.abs(self.matrix.sum(axis=1) - 1.0) <= 1e-9):  # NaN fails
            raise ContractError("joint regressor rows must sum to 1 within 1e-9")

    def __call__(self, vertices: Tensor) -> Tensor:
        return Tensor(self.matrix) @ vertices


@dataclass
class EuclideanLosses:
    mesh: Tensor
    joint: Tensor
    normal: Tensor
    edge: Tensor
    degenerate_faces: int


def hyperbolic_mesh_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean per-vertex L1 distance after mapping both meshes onto the ball.

    Meshes are [n, 3] or [T, n, 3] (the mean pools all frames); vertex
    coordinates in meters are O(1), so they enter the exponential map as they are.
    """
    if pred.shape != gt.shape:
        raise ShapeError(f"mesh shapes differ: {pred.shape} vs {gt.shape}")
    e_pred = expmap0(pred)
    e_gt = expmap0(gt)
    return _mean_l1(e_gt, e_pred)


def _mean_l1(pred: Tensor, gt: Tensor) -> Tensor:
    return T.tabs(pred - gt).sum(axis=-1).mean()


def euclidean_losses(pred_fine: Tensor, gt_fine: Tensor,
                     pred_coarse: Tensor, gt_coarse: Tensor,
                     regressor: JointRegressor,
                     topology: MeshTopology) -> EuclideanLosses:
    """Mesh/joint L1, face-normal, and coarse-edge-length losses.

    Meshes are [n, 3] or [T, n, 3]; each term is the mean over frames of the
    frame's term. Normals use ground-truth unit face normals against unit
    predicted edge vectors; zero-area ground-truth faces are skipped and
    tallied. Edge lengths are compared on the coarse topology edges.
    """
    if pred_fine.shape != gt_fine.shape:
        raise ShapeError(f"fine mesh shapes differ: {pred_fine.shape} vs {gt_fine.shape}")
    if pred_coarse.shape != gt_coarse.shape:
        raise ShapeError(
            f"coarse mesh shapes differ: {pred_coarse.shape} vs {gt_coarse.shape}")
    # frames share vertex, joint and edge counts: pooled means = means of frame means
    if pred_fine.ndim == 2:
        pred_fine, gt_fine, pred_coarse, gt_coarse = (
            t.reshape(1, *t.shape) for t in (pred_fine, gt_fine, pred_coarse, gt_coarse))

    l_mesh = _mean_l1(pred_fine, gt_fine)
    l_joint = _mean_l1(regressor(pred_fine), regressor(gt_fine))

    faces = topology.faces
    gt_np = gt_fine.data
    v0, v1, v2 = (gt_np[:, faces[:, i]] for i in range(3))
    normals = np.cross(v1 - v0, v2 - v0)
    areas = np.linalg.norm(normals, axis=-1)
    keep = areas > 1e-12
    frame, face = np.nonzero(keep)
    if frame.size:
        n_hat = Tensor((normals[keep] / areas[keep][:, None])[:, None, :])
        # a kept face of frame t weighs 1 / (T * kept faces of frame t)
        weight = Tensor(1.0 / (keep.sum(axis=1)[frame] * keep.shape[0]))
        corners = pred_fine[frame[:, None], faces[face]]      # [K, 3, 3]
        e = corners[:, [1, 2, 0]] - corners                   # edges 0-1, 1-2, 2-0
        e_hat = e / T.l2norm(e, keepdims=True, eps=1e-12)
        terms = T.tabs((e_hat * n_hat).sum(axis=-1)).sum(axis=-1)
        l_normal = (terms * weight).sum()
    else:
        l_normal = Tensor(0.0)

    edges = topology.edges
    if edges.size:
        e_pred = pred_coarse[:, edges[:, 0]] - pred_coarse[:, edges[:, 1]]
        e_gt = gt_coarse[:, edges[:, 0]] - gt_coarse[:, edges[:, 1]]
        len_pred = T.l2norm(e_pred, keepdims=False, eps=1e-12)
        len_gt = T.l2norm(e_gt, keepdims=False, eps=1e-12)
        l_edge = T.tabs(len_pred - len_gt).mean()
    else:
        l_edge = Tensor(0.0)

    return EuclideanLosses(mesh=l_mesh, joint=l_joint, normal=l_normal,
                           edge=l_edge, degenerate_faces=int((~keep).sum()))


def total_loss(losses: EuclideanLosses, hymesh: Tensor, cfg: PipelineConfig) -> Tensor:
    """Weighted sum of the Euclidean terms and the hyperbolic mesh loss: ``cfg.lambda_*``."""
    return (cfg.lambda_mesh * losses.mesh
            + cfg.lambda_joint * losses.joint
            + cfg.lambda_normal * losses.normal
            + cfg.lambda_edge * losses.edge
            + cfg.lambda_hyper * hymesh)
