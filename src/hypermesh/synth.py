"""Synthetic scenes: a sinusoidally articulating toy skeleton, a coarse mesh
skinned to it, a fine mesh produced by the fixed upsampler, and image-like
features derived from the poses. Everything is a deterministic function of
the config seed; the joints' motion amplitude and the feature noise are fixed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import ContractError
from .losses import JointRegressor
from .pipeline import MeshTopology
from .tensor_io import load_checkpoint, save_checkpoint

# the config field that sizes each axis of a scene array ("xyz" has length 3)
SCENE_AXES = {"poses": "t_frames n_joints xyz", "coarse_meshes": "t_frames n_coarse xyz",
              "fine_meshes": "t_frames n_fine xyz", "feats": "t_frames feat_dim",
              "regressor": "n_joints n_fine", "upsampler": "n_fine n_coarse"}
SCENE_ARRAYS = (*SCENE_AXES, "edges", "faces")
MOTION_AMPLITUDE = 0.15  # scale of each joint's sinusoid amplitude, meters
FEATURE_NOISE = 0.01     # std of the Gaussian noise added to the features


@dataclass
class SyntheticScene:
    poses: np.ndarray          # [T, J, 3] gt joints, meters
    coarse_meshes: np.ndarray  # [T, n_coarse, 3]
    fine_meshes: np.ndarray    # [T, n_fine, 3]
    feats: np.ndarray          # [T, feat_dim]
    topology: MeshTopology
    regressor: JointRegressor

    def check(self, cfg: PipelineConfig) -> None:
        """Raise ContractError unless every array is finite and sized by ``cfg``."""
        arrays = {**vars(self), "regressor": self.regressor.matrix,
                  "upsampler": self.topology.upsampler}
        for name, axes in SCENE_AXES.items():
            a, axes = arrays[name], axes.split()
            for axis, got in zip(axes, a.shape):
                want = 3 if axis == "xyz" else getattr(cfg, axis)
                if got != want:
                    raise ContractError(f"scene {name}: {axis} is {got} in the scene "
                                        f"but {want} in the config")
            if a.ndim != len(axes) or not np.isfinite(a).all():
                raise ContractError(f"scene {name} must be a finite [{', '.join(axes)}] "
                                    f"array, got shape {a.shape}")


def build_toy_topology(cfg: PipelineConfig, rng: np.random.Generator) -> MeshTopology:
    nc, nf = cfg.n_coarse, cfg.n_fine
    upsampler = np.zeros((nf, nc))
    upsampler[:nc, :nc] = np.eye(nc)
    for v in range(nc, nf):
        picks = rng.choice(nc, size=min(3, nc), replace=False)
        weights = rng.random(len(picks)) + 0.1
        upsampler[v, picks] = weights / weights.sum()

    edges = {(i, (i + 1) % nc) for i in range(nc)}
    for _ in range(nc):
        a, b = rng.choice(nc, size=2, replace=False)
        edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)

    faces = set()
    while len(faces) < nf:
        tri = tuple(sorted(rng.choice(nf, size=3, replace=False)))
        faces.add(tri)
    faces = sorted(faces)

    return MeshTopology(edges=np.asarray(edges), faces=np.asarray(faces), upsampler=upsampler)


def build_regressor(cfg: PipelineConfig) -> JointRegressor:
    # fine vertex j is the identity-upsampled copy of coarse anchor j,
    # which the generator pins exactly at joint j
    r = np.zeros((cfg.n_joints, cfg.n_fine))
    r[np.arange(cfg.n_joints), np.arange(cfg.n_joints)] = 1.0
    return JointRegressor(r)


def synth_generate(cfg: PipelineConfig) -> SyntheticScene:
    """Build one deterministic scene from the config seed."""
    rng = np.random.default_rng(cfg.seed)
    t_frames, j = cfg.t_frames, cfg.n_joints

    base = rng.uniform(-0.4, 0.4, size=(j, 3))
    amp = rng.uniform(0.2, 1.0, size=(j, 3)) * MOTION_AMPLITUDE
    freq = rng.integers(1, 4, size=(j, 3)).astype(np.float64)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(j, 3))
    t = np.arange(t_frames, dtype=np.float64)[:, None, None]
    poses = base + amp * np.sin(2.0 * math.pi * freq * t / t_frames + phase)

    topology = build_toy_topology(cfg, rng)
    assign = np.arange(cfg.n_coarse) % j
    offsets = rng.uniform(-0.1, 0.1, size=(cfg.n_coarse, 3))
    offsets[:j] = 0.0  # anchors sit exactly on their joints
    coarse = poses[:, assign, :] + offsets
    fine = np.einsum("fc,tcx->tfx", topology.upsampler, coarse)

    proj = rng.normal(size=(cfg.feat_dim, 3 * j)) / math.sqrt(3 * j)
    feats = poses.reshape(t_frames, 3 * j) @ proj.T
    feats = feats + FEATURE_NOISE * rng.normal(size=feats.shape)

    return SyntheticScene(poses=poses, coarse_meshes=coarse, fine_meshes=fine,
                          feats=feats, topology=topology,
                          regressor=build_regressor(cfg))


def save_scene(scene: SyntheticScene, directory: str | Path) -> Path:
    """Write the scene as a checkpoint of the arrays in ``SCENE_ARRAYS``."""
    topo = scene.topology
    save_checkpoint(directory, {
        "poses": scene.poses, "coarse_meshes": scene.coarse_meshes,
        "fine_meshes": scene.fine_meshes, "feats": scene.feats,
        "regressor": scene.regressor.matrix, "upsampler": topo.upsampler,
        "edges": topo.edges, "faces": topo.faces})
    return Path(directory)


def load_scene(directory: str | Path) -> SyntheticScene:
    arrays = load_checkpoint(Path(directory) / "manifest.json")
    if sorted(arrays) != sorted(SCENE_ARRAYS):
        raise ContractError(f"{directory}: a scene holds the arrays {sorted(SCENE_ARRAYS)}, "
                            f"its manifest lists {sorted(arrays)}")
    return SyntheticScene(
        poses=arrays["poses"], coarse_meshes=arrays["coarse_meshes"],
        fine_meshes=arrays["fine_meshes"], feats=arrays["feats"],
        topology=MeshTopology(edges=arrays["edges"], faces=arrays["faces"],
                              upsampler=arrays["upsampler"]),
        regressor=JointRegressor(arrays["regressor"]),
    )
