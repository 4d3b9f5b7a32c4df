"""Tiny parameter-container base class.

Modules hold Tensors and child Modules as attributes. Every Tensor a module
holds is a parameter, frozen or not: ``requires_grad`` decides only whether
ops on it are taped. Parameter names are derived from attribute paths, in
sorted order, so checkpoints are stable across runs (``MeshPipeline`` writes
and reads them).
"""

from __future__ import annotations

from .tensor import Tensor


class Module:
    # attribute names whose tensors must stay on the Poincare ball
    ball_param_names: tuple[str, ...] = ()

    def _walk(self, prefix: str = ""):
        """(name, is-ball, tensor) of every Tensor in the tree, attributes in sorted order."""
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Tensor):
                yield prefix + name, name in self.ball_param_names, value
            elif isinstance(value, Module):
                yield from value._walk(prefix + name + ".")

    def named_parameters(self) -> dict[str, Tensor]:
        return {name: p for name, _, p in self._walk()}

    def parameters(self) -> list[Tensor]:
        return [p for _, _, p in self._walk()]

    def ball_parameters(self) -> list[Tensor]:
        """Parameters constrained to the ball (re-projected after updates)."""
        return [p for _, ball, p in self._walk() if ball]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()
