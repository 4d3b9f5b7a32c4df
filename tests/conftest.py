"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from hypermesh import tensor as T
from hypermesh.manifold import BallParams

# the ops whose outputs are points on the Poincaré ball
BALL_OPS = ("mobius_add", "mobius_matvec", "expmap0", "project_to_ball")


class BallNormObserver:
    """Wraps ``tensor._make``; records the largest trailing-vector norm of
    every ball-op output made while it is installed."""

    def __init__(self, make):
        self._make = make
        self.reset()

    def reset(self) -> None:
        self.max_norm = 0.0
        self.outputs = 0
        self.op_max: dict[str, float] = {}  # the largest norm, per op

    def exceeds(self, p: BallParams) -> bool:
        """True when no ball op ran, or one left the shell 1 - eps_ball."""
        return self.outputs == 0 or self.max_norm > 1.0 - p.eps_ball + 1e-12

    def __call__(self, data, op, parents, backward):
        if op in BALL_OPS and data.size:
            norm = float(np.sqrt((data * data).sum(axis=-1)).max())
            self.op_max[op] = max(self.op_max.get(op, 0.0), norm)
            self.max_norm = max(self.max_norm, norm)
            self.outputs += 1
        return self._make(data, op, parents, backward)


@pytest.fixture
def ball_norms(monkeypatch):
    observer = BallNormObserver(T._make)
    monkeypatch.setattr(T, "_make", observer)
    return observer
