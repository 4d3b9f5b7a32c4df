"""Finite-difference gradient verification.

The oracle is central differencing of the forward function itself; it never
consults the reverse-mode rules it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError
from .tensor import Tensor


@dataclass
class GradcheckReport:
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def gradcheck(f: Callable[..., Tensor],
              inputs: Sequence[Tensor],
              tol: float = 1e-6,
              max_entries: int | None = None,
              rng: np.random.Generator | None = None) -> GradcheckReport:
    """Compare reverse-mode gradients of ``f(*inputs)`` with central differences.

    ``f`` must return a tensor of size 1, of any rank. The step is 1e-5, and the
    relative error per entry is |a - n| / max(1, |a|, |n|). ``max_entries`` caps
    the number of finite-difference probes per input (seeded subsample) for deep graphs.
    """
    inputs = list(inputs)
    step = 1e-5
    for x in inputs:
        x.requires_grad = True
        x.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ContractError("gradcheck requires a function with one output value")
    out.backward()

    errs = [0.0]
    for x in inputs:
        analytic = x.grad if x.grad is not None else np.zeros(x.shape)
        flat = x.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(n, size=max_entries, replace=False)
        else:
            idxs = np.arange(n)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            fp = f(*inputs).data.item()
            flat[i] = orig - step
            fm = f(*inputs).data.item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * step)
            errs.append(_rel_err(float(analytic.reshape(-1)[i]), numeric))
    # np.max keeps a NaN error, where max() would drop it and pass the check
    return GradcheckReport(max_rel_err=float(np.max(errs)), tol=tol)
