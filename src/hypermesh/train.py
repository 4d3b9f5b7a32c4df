"""Toy training harness: full-batch gradient descent on one synthetic scene,
with ball re-projection after every parameter update, loss-curve CSV, and
bit-exact checkpointing. The loss and the predictions read the pair that
``MeshPipeline.run_sequence`` returns: the fused coarse mesh and the fine mesh.
Only ``train_toy`` reads ``template_mesh_path``: the file is the initial ``template``
state entry, checked as a checkpoint entry is; evaluation reads the checkpoint's."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import PipelineConfig
from .errors import ConfigError, NumericError
from .losses import euclidean_losses, hyperbolic_mesh_loss, total_loss
from .manifold import BallParams, DEFAULT_PARAMS, ball_clamp
from .metrics import write_metric_report
from .pipeline import MeshPipeline
from .synth import SyntheticScene, synth_generate
from .tensor import Tensor
from .tensor_io import (atomic_write, load_checkpoint, load_tensor,
                        save_checkpoint)


class SGD:
    """Plain SGD with optional momentum; ball-constrained parameters are
    re-projected onto the ball after every update."""

    def __init__(self, params, ball_params_list, lr: float, momentum: float = 0.0,
                 ball: BallParams = DEFAULT_PARAMS):
        self.params = list(params)
        self.ball_set = {id(p) for p in ball_params_list}
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self.ball = ball

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data = p.data - self.lr * v
            if id(p) in self.ball_set:
                p.data, _ = ball_clamp(p.data, self.ball)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def build_pipeline(cfg: PipelineConfig, scene: SyntheticScene) -> MeshPipeline:
    """The seeded initial pipeline; it never reads the template file."""
    scene.check(cfg)
    return MeshPipeline(n_joints=cfg.n_joints, feat_dim=cfg.feat_dim,
                        dim=cfg.model_dim, heads=cfg.heads, topology=scene.topology,
                        rng=np.random.default_rng(cfg.seed + 1))


def scene_loss(pipeline: MeshPipeline, scene: SyntheticScene, cfg: PipelineConfig,
               disable_hmo: bool = False) -> Tensor:
    """Mean over frames of the full weighted loss against the scene's ground truth."""
    m_opt, m_out = pipeline.run_sequence(Tensor(scene.poses), Tensor(scene.feats),
                                         disable_hmo=disable_hmo)
    gt_fine = Tensor(scene.fine_meshes)
    eu = euclidean_losses(m_out.vertices, gt_fine, m_opt.vertices,
                          Tensor(scene.coarse_meshes), scene.regressor, scene.topology)
    hy = hyperbolic_mesh_loss(m_out.vertices, gt_fine)
    return total_loss(eu, hy, cfg)


def _nonfinite_source(loss: Tensor) -> str:
    """Names the first op on the loss's tape whose output is non-finite while
    every input it records is finite; untracked inputs are constants."""
    def finite(t):
        return bool(np.isfinite(t.data).all())
    for node in T.tape_order(loss):
        if (node._parents and not finite(node)
                and all(finite(p) for p in node._parents if p.requires_grad)):
            return f"non-finite output of op '{node._op}'"
    return "non-finite parameter"


@dataclass
class TrainResult:
    losses: list[float]
    checkpoint_path: Path
    loss_curve_path: Path

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train_toy(cfg: PipelineConfig, *, out_dir: str | Path) -> TrainResult:
    """Train on ``synth_generate(cfg)``; write the loss curve and checkpoint to ``out_dir``."""
    scene = synth_generate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pipeline = build_pipeline(cfg, scene)
    if cfg.template_mesh_path:
        pipeline.load_state_dict({**pipeline.state_dict(),
                                  "template": load_tensor(cfg.template_mesh_path)})
    opt = SGD(pipeline.parameters(), pipeline.ball_parameters(),
              lr=cfg.learning_rate, momentum=cfg.momentum)

    losses: list[float] = []
    for step in range(cfg.steps):
        # cosine decay: full-batch descent oscillates at a constant rate,
        # annealing to zero lets the loss settle instead of cycling
        opt.lr = cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * step / cfg.steps))
        opt.zero_grad()
        loss = scene_loss(pipeline, scene, cfg, disable_hmo=cfg.disable_hmo)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericError(
                f"training aborted at step {step}: {_nonfinite_source(loss)}")
        losses.append(value)
        loss.backward()
        opt.step()
    if not losses:
        losses.append(scene_loss(pipeline, scene, cfg,
                                 disable_hmo=cfg.disable_hmo).item())

    curve_path = out / "loss_curve.csv"
    with atomic_write(curve_path) as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(losses):
            fh.write(f"{i},{v:.12g}\n")

    ckpt_path = save_checkpoint(out / "checkpoint", pipeline.state_dict())
    return TrainResult(losses=losses, checkpoint_path=ckpt_path,
                       loss_curve_path=curve_path)


def predict(cfg: PipelineConfig, checkpoint_manifest: str | Path,
            scene: SyntheticScene) -> np.ndarray:
    """Fine-mesh vertices [T, n_fine, 3] that the checkpoint predicts for the scene."""
    pipeline = build_pipeline(cfg, scene)
    pipeline.load_state_dict(load_checkpoint(checkpoint_manifest))
    # nothing here runs backward: untracked parameters keep the tape empty
    for param in pipeline.parameters():
        param.requires_grad = False
    _, m_out = pipeline.run_sequence(Tensor(scene.poses), Tensor(scene.feats),
                                     disable_hmo=cfg.disable_hmo)
    return m_out.vertices.data


def evaluate(cfg: PipelineConfig, checkpoint_manifest: str | Path,
             report_path: str | Path, scene: SyntheticScene) -> dict:
    """Load a checkpoint, run the pipeline on the scene, write the per-frame
    metric CSV and return its summary: each column's mean and ``accel_error_mm``."""
    if cfg.t_frames < 4:  # the acceleration error needs 3 frames, and t_frames is even
        raise ConfigError(f"eval needs t_frames >= 4, got {cfg.t_frames}")
    pred_fine = predict(cfg, checkpoint_manifest, scene)
    pred_joints = np.einsum("jf,tfx->tjx", scene.regressor.matrix, pred_fine)
    return write_metric_report(report_path, pred_joints, scene.poses,
                               pred_fine, scene.fine_meshes, root_idx=cfg.root_joint)
