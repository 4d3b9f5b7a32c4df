"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Each output check is shown to pass on the program's real output and to
catch a perturbed one. Outside the repository's tier-1 suite.
"""

from __future__ import annotations

import copy
import gc
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from hypermesh import tensor as T  # noqa: E402
from hypermesh.config import PipelineConfig  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = dict(t_frames=6, n_joints=3, feat_dim=8, model_dim=8, heads=2,
             n_coarse=6, n_fine=10)


@pytest.fixture
def eval_state(tmp_path):
    state = workloads.build_state("eval", PipelineConfig(**SMALL), 3, tmp_path)
    state.reference = workloads.eval_reference(state)
    return state


@pytest.fixture
def train_state(tmp_path):
    return workloads.build_state("train", PipelineConfig(**SMALL), 3, tmp_path)


def _eval_once(state):
    summary = workloads.eval_call(state)
    return summary, state.report.read_text()


def test_eval_check_passes_on_program_output(eval_state):
    summary, text = _eval_once(eval_state)
    assert workloads.check_eval_call(summary, text, eval_state.reference) == []


def _perturb_row(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("col", [1, 2, 3])
def test_eval_check_catches_a_perturbed_frame(eval_state, col):
    summary, text = _eval_once(eval_state)
    bad = _perturb_row(text, 2, col, 1.0 + 1e-6)
    assert workloads.check_eval_call(summary, bad, eval_state.reference)


def test_eval_check_catches_summary_and_ordering(eval_state):
    summary, text = _eval_once(eval_state)
    wrong = dict(summary, mpvpe_mm=summary["mpvpe_mm"] * (1 + 1e-6))
    assert workloads.check_eval_call(wrong, text, eval_state.reference)
    # PA-MPJPE above MPJPE, with the reference moved along so only the order is wrong
    lines = text.splitlines()
    frame, mpjpe, pa, mpvpe = lines[1].split(",")
    lines[1] = ",".join([frame, pa, mpjpe, mpvpe])
    ref = copy.deepcopy(eval_state.reference)
    ref["rows"][0]["mpjpe_mm"], ref["rows"][0]["pa_mpjpe_mm"] = float(pa), float(mpjpe)
    problems = workloads.check_eval_call(summary, "\n".join(lines), ref)
    assert any("PA-MPJPE" in p for p in problems)


def test_eval_check_catches_a_stale_checkpoint(eval_state, tmp_path):
    """The reference reads the checkpoint's weights: a report made from the
    untrained initialisation instead must fail."""
    init = workloads.train.build_pipeline(eval_state.cfg, eval_state.scene).state_dict()
    stale = workloads.tensor_io.save_checkpoint(tmp_path / "stale", init)
    summary = workloads.train.evaluate(eval_state.cfg, stale, eval_state.report,
                                       scene=eval_state.scene)
    assert workloads.check_eval_call(summary, eval_state.report.read_text(),
                                     eval_state.reference)


def test_directional_derivative_agrees(train_state):
    analytic, numeric = workloads.directional_derivative(train_state, 3)
    assert workloads.check_directional_derivative(analytic, numeric) == []
    assert workloads.check_directional_derivative(analytic * (1 + 1e-5), numeric)


def test_directional_derivative_catches_a_wrong_backward(train_state, monkeypatch):
    real_tanh = T.tanh

    def tanh_with_bad_grad(a):
        out = real_tanh(a)
        good = out._backward
        if good is not None:
            out._backward = lambda g: tuple(0.9 * x for x in good(g))
        return out

    monkeypatch.setattr(T, "tanh", tanh_with_bad_grad)
    analytic, numeric = workloads.directional_derivative(train_state, 3)
    assert workloads.check_directional_derivative(analytic, numeric)


def test_training_run_checks():
    assert workloads.check_training_run([3.0, 2.0], 1.5, 0.5, 1e-5, True) == []
    assert workloads.check_training_run([3.0, float("nan")], 1.5, 0.5, 1e-5, True)
    assert workloads.check_training_run([3.0, 2.0], 3.5, 0.5, 1e-5, True)
    assert workloads.check_training_run([3.0, 2.0], 3.5, 0.5, 1e-5, False) == []
    assert workloads.check_training_run([3.0, 2.0], 1.5, 1.0, 1e-5, True)


def test_training_steps_keep_ball_rows_inside(train_state):
    for _ in range(3):
        loss = workloads.train_step(train_state)
    assert np.isfinite(loss.item())
    assert workloads.ball_row_max_norm(train_state) <= 1.0 - 1e-5


def _traced_op(tr, op, state, before=None):
    """One traced operation timed as the worker times it; ``before`` runs
    inside the timed window but outside every span."""
    tr.install()
    tr.reset()
    t0 = time.perf_counter()
    if before:
        before()
    result = op(state)
    latency = time.perf_counter() - t0
    tr.uninstall()
    return result, tr.snapshot(), latency


def test_tracer_accounts_and_restores(train_state):
    tr = tracing.Tracer()
    assert tr.missing == []
    snaps = []
    op = tr.root(workloads.train_step)
    for _ in range(2):
        loss, snap, latency = _traced_op(tr, op, train_state)
        assert tracing.accounting_errors(snap, latency) == []
        snaps.append(snap)
    assert tracing.counts_of(snaps[0]) == tracing.counts_of(snaps[1])
    assert snaps[0]["stats"]["pipeline.OptBlock"][tracing.CALLS] == 2 * SMALL["t_frames"]
    assert workloads.retained_grad_bytes([loss]) > 0
    for owner, key, original, wrapper in tr._bindings:
        assert getattr(owner, key) is original is not wrapper


def test_accounting_catches_time_outside_the_spans(train_state):
    tr = tracing.Tracer()
    op = tr.root(workloads.train_step)
    _, snap, latency = _traced_op(tr, op, train_state, before=lambda: time.sleep(0.05))
    problems = tracing.accounting_errors(snap, latency)
    assert problems and "account for" in problems[0]


def test_eval_tape_roots_show_retained_grads(eval_state):
    tr = tracing.Tracer()
    tr.install()
    tr.keep_tape_roots = True
    workloads.eval_call(eval_state)
    tr.uninstall()
    roots = list(tr.tape_roots)
    assert len(roots) == SMALL["t_frames"]
    assert workloads.retained_grad_bytes(roots) == 0
    # an evaluate that ran backward would leave grads on the same tape
    roots[0].sum().backward()
    assert workloads.retained_grad_bytes(roots) > 0


def test_tracer_reports_a_vanished_name_as_missing(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("manifold.gone", "manifold", "gone")])
    tr = tracing.Tracer()
    assert tr.missing == ["manifold.gone"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "train_default", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_kernel_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert calibrate.kernel_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.kernel_s()
        assert not gc.isenabled()
    finally:
        gc.enable()
