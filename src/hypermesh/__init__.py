"""Hyperbolic-space mesh recovery with temporal motion priors.

Self-contained numpy implementation: Poincaré-ball gyrovector algebra,
hyperbolic transformer layers, a GRU-based temporal motion prior, dual
pose/motion mesh optimization blocks, losses/metrics, and a reproducible
synthetic-scene training harness.
"""

from .config import PipelineConfig
from .manifold import (BallParams, expmap0, logmap0, mobius_add, mobius_matvec,
                       project_to_ball)
from .tensor import Tensor

__all__ = [
    "BallParams",
    "PipelineConfig",
    "Tensor",
    "expmap0",
    "logmap0",
    "mobius_add",
    "mobius_matvec",
    "project_to_ball",
]

__version__ = "0.1.0"
