"""Reference kernel that measures how fast the machine runs at the moment.

On a shared host the same code runs up to a third slower or faster from one
stretch of seconds or minutes to the next, as other tenants load the
machine. A training step of the default configuration took 73 ms in one
24-second stretch and 133 ms in another of the same process. So the
benchmark times this fixed kernel next to every operation and every
start-up, and reports each duration at a reference speed:

    duration_at_reference = duration * REFERENCE_S / kernel time around it

The kernel is a small tape-based autodiff (forward through 250 matmul and
tanh nodes held in closures, then backward), so it exercises the same mix
as the program: Python calls, small objects and small numpy arrays. It
imports nothing from the program, and runs with the garbage collector off,
so that nothing the program changes (its code, or collector settings made
at import) changes the kernel's time. Over 24-second stretches of one
process, the step time divided by the adjacent kernel time spread 0.04 (IQR
over median) on ``train_default`` and 0.02 on ``train_wide``, where the raw
step time spread 0.23 and 0.26.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Kernel time that defines the reference speed: about the kernel's median on
# a 2-vCPU Xeon VM at 2.0 GHz. Durations reported "at reference speed" are
# what they would be on a machine on which the kernel takes this long.
REFERENCE_S = 0.010

_DEPTH = 250
_X = np.linspace(0.0, 1.0, 24 * 32).reshape(24, 32)
_W = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 8.0


class _Node:
    __slots__ = ("data", "grad", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.grad = None
        self.parents = parents
        self.backward = backward


def _kernel() -> float:
    x, w = _Node(_X), _Node(_W)
    tape = []
    h = x
    for _ in range(_DEPTH):
        m = _Node(h.data @ w.data, (h, w),
                  lambda g, h=h, w=w: (g @ w.data.T, h.data.T @ g))
        t = _Node(np.tanh(m.data), (m,),
                  lambda g, m=m: (g * (1.0 - np.tanh(m.data) ** 2),))
        tape += (m, t)
        h = t
    h.grad = np.ones_like(h.data)
    for node in reversed(tape):
        for parent, g in zip(node.parents, node.backward(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
    return float(w.grad.sum())


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
