"""Run configuration: one strict JSON document drives a whole experiment.
The ball margins are not a setting: every run uses ``manifold.DEFAULT_PARAMS``."""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .manifold import DEFAULT_PARAMS, BallParams
from .tensor_io import atomic_write, read_json_object

# accepted value types, by field annotation
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


@dataclass(frozen=True)  # validated once, here: a field set later would bypass the checks
class PipelineConfig:
    # sequence / model dimensions
    t_frames: int = 4
    n_joints: int = 5
    feat_dim: int = 16
    model_dim: int = 32
    heads: int = 2
    n_coarse: int = 8
    n_fine: int = 24
    # training
    seed: int = 0
    learning_rate: float = 0.005
    momentum: float = 0.9
    steps: int = 1500
    disable_hmo: bool = False
    # loss weights of losses.total_loss
    lambda_mesh: float = 1.0
    lambda_joint: float = 1.0
    lambda_hyper: float = 1.0
    lambda_normal: float = 0.1
    lambda_edge: float = 20.0
    # evaluation
    root_joint: int = 0
    # paths
    template_mesh_path: str = ""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _TYPES[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            # NaN, infinities and integers too large for a float64
            if isinstance(value, numbers.Real) and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if f.name.startswith(("lambda_", "steps", "learning_rate")) and value < 0:
                raise ConfigError(f"{f.name} must be nonnegative, got {value}")
            if f.name == "momentum" and not 0 <= value < 1:  # else the velocity never decays
                raise ConfigError(f"momentum must be in [0, 1), got {value}")
        if self.t_frames < 2 or self.t_frames % 2 != 0:
            raise ConfigError(f"t_frames must be even and >= 2, got {self.t_frames}")
        # a scene needs a coarse edge, and n_fine distinct faces: C(n_fine, 3) >= n_fine
        for name, least in (("n_joints", 1), ("feat_dim", 1), ("model_dim", 1), ("heads", 1),
                            ("n_coarse", 2), ("n_fine", 4)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        for name in ("model_dim", "feat_dim"):
            if getattr(self, name) % self.heads != 0:
                raise ConfigError(
                    f"{name} {getattr(self, name)} not divisible by heads {self.heads}")
        for small, large in (("n_joints", "n_coarse"), ("n_coarse", "n_fine")):
            if getattr(self, large) < getattr(self, small):
                raise ConfigError(f"{large} must be >= {small}")
        if not (0 <= self.root_joint < self.n_joints):
            raise ConfigError(f"root_joint {self.root_joint} out of range")

    def ball_params(self) -> BallParams:
        return DEFAULT_PARAMS

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_json_object(path, ConfigError, "config"))
