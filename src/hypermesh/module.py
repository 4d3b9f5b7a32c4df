"""Tiny parameter-container base class.

Modules hold Tensors (parameters) and child Modules as attributes; parameter
names are derived from attribute paths, in sorted order, so checkpoints are
stable across runs (``MeshPipeline`` writes and reads them).
"""

from __future__ import annotations

from .tensor import Tensor


class Module:
    # attribute names whose tensors must stay on the Poincare ball
    ball_param_names: tuple[str, ...] = ()

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Tensor) and value.requires_grad:
                out[prefix + name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(prefix + name + "."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def ball_parameters(self) -> list[Tensor]:
        """Parameters constrained to the ball (re-projected after updates)."""
        out = [getattr(self, n) for n in self.ball_param_names]
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Module):
                out.extend(value.ball_parameters())
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()
