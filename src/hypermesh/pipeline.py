"""Coarse-mesh optimization blocks and the end-to-end sequence pipeline.

Two architecturally identical blocks refine the learnable coarse template:
one attends to the frame's static 3D pose, the other to the pose motion
codes. They are stored as one :class:`OptBlock` whose parameters carry a
leading block axis, and run in one call on both streams; a checkpoint holds
each block's slice under its own name (``hpo.*``, ``hmo.*``). Their outputs
are summed over the block axis and upsampled to the fine mesh with a fixed
row-stochastic matrix; the ablation runs both blocks and masks the motion
block's output with 0 before that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError, TopologyError
from .layers import HyperAdaLN, HyperAttention, HyperFFN, Linear, _uniform
from .manifold import expmap0, logmap0, mobius_add
from .module import Module
from .temporal import TemporalPriorExtractor
from .tensor import Tensor
from .tensor_io import atomic_write


@dataclass
class MeshTopology:
    """Coarse edges, fine faces, and the upsampler U; ``n_fine, n_coarse`` are U's shape."""

    edges: np.ndarray       # [E, 2] coarse vertex index pairs
    faces: np.ndarray       # [F, 3] fine vertex triangles
    upsampler: np.ndarray   # [n_fine, n_coarse], row-stochastic

    def __post_init__(self):
        for name, width in (("edges", 2), ("faces", 3)):
            a = np.asarray(getattr(self, name))
            if (a.dtype.kind not in "iuf" or a.ndim != 2 or a.shape[1] != width
                    or not np.isfinite(a).all() or not np.array_equal(a, np.floor(a))):
                raise TopologyError(f"{name} must be an [n, {width}] array of "
                                    f"integers, got shape {a.shape}")
            setattr(self, name, a.astype(np.int64))
        self.upsampler = np.asarray(self.upsampler, dtype=np.float64)
        if self.upsampler.ndim != 2:
            raise TopologyError(f"upsampler must be 2-D, got shape {self.upsampler.shape}")
        self.n_fine, self.n_coarse = self.upsampler.shape
        if not np.all(self.upsampler >= 0):  # NaN fails both tests
            raise TopologyError("upsampler has negative entries")
        row_sums = self.upsampler.sum(axis=1)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-9):
            raise TopologyError("upsampler rows must sum to 1 within 1e-9")
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= self.n_coarse):
            raise TopologyError("edge index out of range")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= self.n_fine):
            raise TopologyError("face index out of range")


@dataclass
class MeshState:
    """A vertex set: the coarse or the fine mesh of every frame."""

    vertices: Tensor


def export_obj(path: str | Path, vertices: np.ndarray, faces: np.ndarray) -> None:
    """Write a minimal OBJ file (1-based face indices)."""
    with atomic_write(path) as fh:
        for v in np.asarray(vertices, dtype=np.float64):
            fh.write(f"v {v[0]:.9f} {v[1]:.9f} {v[2]:.9f}\n")
        for f in np.asarray(faces, dtype=np.int64):
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


class OptBlock(Module):
    """One hyperbolic mesh-refinement block (shared by the pose and motion paths).

    Pipeline per frame: embed mesh/pose streams to width d with learnable
    positional encodings, lift to the ball, condition the mesh tokens on the
    frame's prior row (adaptive LN), cross-attend mesh<-pose, then a
    self-attention stage, each followed by conditioned FFN sub-blocks with
    Möbius residuals (``mobius_add(block_output, residual)``, in that order:
    the addition does not commute), and finally map back to Euclidean
    coordinates.
    One call runs every frame: ``cond`` [T, 1, D_f] and ``pose`` [T, J, 3]
    give [T, n_tokens, 3]. The frame-independent mesh-token prefix is
    computed once and broadcast over the frames by the first adaptive LN.
    A block whose parameters carry a leading block axis B (a bias [out] as
    [B, 1, out]) runs B blocks at once: ``cond`` [T, B or 1, 1, D_f] and
    ``pose`` [T, B, J, 3] give [T, B, n_tokens, 3], slice b by weight slice b.
    """

    def __init__(self, n_tokens: int, n_keys: int, cond_dim: int, dim: int,
                 heads: int, rng: np.random.Generator):
        self.embed_mesh = Linear(3, dim, rng)
        self.embed_pose = Linear(3, dim, rng)
        self.pos_mesh = _uniform(rng, (n_tokens, dim))
        self.pos_pose = _uniform(rng, (n_keys, dim))
        self.adaln_in = HyperAdaLN(dim, cond_dim, rng)
        self.cross_att = HyperAttention(dim, heads, rng)
        self.adaln_mid = HyperAdaLN(dim, cond_dim, rng)
        self.ffn_mid = HyperFFN(dim, rng)
        self.self_att = HyperAttention(dim, heads, rng)
        self.adaln_out = HyperAdaLN(dim, cond_dim, rng)
        self.ffn_out = HyperFFN(dim, rng)
        self.head = Linear(dim, 3, rng)

    def __call__(self, m_init: Tensor, cond: Tensor, pose: Tensor) -> Tensor:
        if m_init.shape[-1] != 3 or pose.shape[-1] != 3:
            raise ShapeError("mesh and pose streams must have trailing dim 3")

        mesh_tokens = self.embed_mesh(m_init) + self.pos_mesh
        pose_tokens = self.embed_pose(pose) + self.pos_pose
        m_hat = expmap0(mesh_tokens)
        p_hat = expmap0(pose_tokens)

        m_mix = self.adaln_in(m_hat, cond)
        x_pm = mobius_add(self.cross_att(m_mix, p_hat), m_mix)
        x_ada = self.adaln_mid(x_pm, cond)
        x_m = mobius_add(self.ffn_mid(x_ada), x_pm)

        x_p = mobius_add(self.self_att(x_m, x_m), x_m)
        m_ref = mobius_add(self.ffn_out(self.adaln_out(x_p, cond)), x_p)

        return self.head(logmap0(m_ref))


def fuse_and_upsample(m_blocks: Tensor, topology: MeshTopology) -> tuple[MeshState, MeshState]:
    """M_opt = the blocks' coarse meshes [..., B, n_coarse, 3] summed over the
    block axis, M_out = U . M_opt on the fine mesh."""
    if m_blocks.ndim < 3 or m_blocks.shape[-2:] != (topology.n_coarse, 3):
        raise ShapeError("fuse_and_upsample expects coarse [..., B, n_coarse, 3] meshes, "
                         f"got {m_blocks.shape}")
    m_opt = m_blocks.sum(axis=-3)
    return MeshState(m_opt), MeshState(Tensor(topology.upsampler) @ m_opt)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform points on the sphere of radius 0.5: the toy template."""
    i = np.arange(n, dtype=np.float64)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - y * y, 0.0))
    theta = golden * i
    return 0.5 * np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=-1)


# checkpoint name of each block slice: 0 refines from the 3D pose, 1 from the pose motion
BLOCKS = ("hpo", "hmo")


class MeshPipeline(Module):
    """Temporal prior extractor + dual optimization blocks + upsampling. The learnable
    template starts as the Fibonacci sphere; ``load_state_dict`` sets and checks any other."""

    def __init__(self, n_joints: int, feat_dim: int, dim: int, heads: int,
                 topology: MeshTopology, rng: np.random.Generator):
        self.prior = TemporalPriorExtractor(n_joints, feat_dim, heads, rng)
        lone = [OptBlock(topology.n_coarse, n_joints, feat_dim, dim, heads, rng)
                for _ in BLOCKS]
        named = [block.named_parameters() for block in lone]
        self.block_shapes = {k: v.shape for k, v in named[0].items()}
        for k, v in named[0].items():  # the first block takes every block's values
            v.data = np.array([n[k].data for n in named]).reshape(len(BLOCKS), -1, v.shape[-1])
        self.blocks = lone[0]
        self.template = Tensor(fibonacci_sphere(topology.n_coarse), requires_grad=True)
        self.topology = topology

    def _layout(self) -> dict[str, tuple[Tensor, int | None, tuple[int, ...]]]:
        """Checkpoint name -> (parameter, its block slice or None, shape): the names,
        shapes and order of two lone blocks under ``BLOCKS``, which sort first."""
        named = self.named_parameters()
        stacked = {k: named.pop("blocks." + k) for k in self.block_shapes}
        return {f"{b}.{k}": (v, BLOCKS.index(b), self.block_shapes[k]) for b in sorted(BLOCKS)
                for k, v in stacked.items()} | {k: (v, None, v.shape) for k, v in named.items()}

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: (v.data if i is None else v.data[i].reshape(shape)).copy()
                for k, (v, i, shape) in self._layout().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Checks every entry, naming the first that fails, before it loads any."""
        layout = self._layout()
        if set(state) != set(layout):
            raise ContractError(f"state dict mismatch: missing={sorted(set(layout) - set(state))}, "
                                f"extra={sorted(set(state) - set(layout))}")
        arrays = {k: np.asarray(state[k], dtype=np.float64) for k in layout}
        for k, (v, i, shape) in layout.items():
            if arrays[k].shape != shape:
                raise ContractError(f"state dict entry {k}: shape {arrays[k].shape} != {shape}")
            if not np.isfinite(arrays[k]).all():
                raise ContractError(f"state dict entry {k} is not finite")
        for k, (v, i, _) in layout.items():
            if i is None:
                v.data = arrays[k].copy()
        for k, v in self.blocks.named_parameters().items():
            v.data = np.array([arrays[f"{b}.{k}"] for b in BLOCKS]).reshape(v.shape)

    def run_sequence(self, poses: Tensor, feats: Tensor,
                     disable_hmo: bool = False) -> tuple[MeshState, MeshState]:
        """Every frame's fused coarse mesh [T, n_coarse, 3] and fine mesh [T, n_fine, 3]."""
        tm_pr, p_motion = self.prior(poses, feats)
        t_frames, n_joints = poses.shape[:2]
        # cond [T, B, 1, D_f]: each block sums its own gradient terms, as a lone
        # block does, before the blocks' sums are added
        cond = T.broadcast_to(tm_pr.reshape(t_frames, 1, 1, tm_pr.shape[1]),
                              (t_frames, len(BLOCKS), 1, tm_pr.shape[1]))
        out = self.blocks(self.template, cond, T.concat(
            [s.reshape(t_frames, 1, n_joints, 3) for s in (poses, p_motion)], axis=1))
        if disable_hmo:  # x * 1 + x' * 0 is x exactly; the motion slice's gradient is 0
            out = out * Tensor(np.array([1.0, 0.0]).reshape(len(BLOCKS), 1, 1))
        return fuse_and_upsample(out, self.topology)
