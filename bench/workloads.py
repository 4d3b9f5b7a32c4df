"""The benchmark's workloads: their inputs, one operation each, and the
checks on every output.

Every input is a function of the workload name and the ``--seed``:
the seed becomes ``PipelineConfig.seed``, which fixes the synthetic scene
and the parameter initialisation, and it also seeds the evaluation
checkpoint's parameter noise and the finite-difference direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hypermesh import synth, tensor_io, train
from hypermesh.config import PipelineConfig
from hypermesh.errors import NumericError

# Why each workload exists is in README.md.
WORKLOADS = {
    "train_default": {"kind": "train", "config": {}},
    "eval_long": {"kind": "eval", "config": {"t_frames": 32}},
    "train_wide": {"kind": "train",
                   "config": {"model_dim": 128, "heads": 4, "n_coarse": 32,
                              "n_fine": 128, "learning_rate": 0.001}},
}

# Whether a run must end below its initial loss. At the default learning
# rate (0.005, momentum 0.9) the loss of seeds 1, 3, 4, 6 and 8 rises
# several-fold within 20 steps and stays above its start for at least 150
# steps, so a run of the length measured here says nothing about descent
# on train_default.
REQUIRE_DESCENT = {"train_default": False, "train_wide": True}

# Central-difference step of the directional-derivative check, and its
# tolerance. Along the gradient-signed direction used below, 1e-7 agreed with
# backward within 1.3e-7 relative on seeds 1-6 at both widths; the step
# stays that small to keep clear of the loss's L1 and clamp kinks.
FD_STEP = 1e-7
FD_RTOL = 1e-6
# Report CSVs hold 12 significant digits.
REPORT_RTOL = 1e-8
REPORT_ATOL_MM = 1e-8
CHECKPOINT_NOISE = 0.02


@dataclass
class TrainState:
    cfg: PipelineConfig
    scene: synth.SyntheticScene
    pipeline: object
    opt: train.SGD
    step: int = 0
    losses: list = field(default_factory=list)
    loss: object = None


@dataclass
class EvalState:
    cfg: PipelineConfig
    scene: synth.SyntheticScene
    params: dict
    manifest: Path
    report: Path
    reference: dict | None = None


def setup(name: str, seed: int, workdir: Path):
    """Everything between ``import hypermesh`` and the first operation."""
    spec = WORKLOADS[name]
    return build_state(spec["kind"], PipelineConfig(seed=seed, **spec["config"]), seed, workdir)


def build_state(kind: str, cfg: PipelineConfig, seed: int, workdir: Path):
    scene = synth.synth_generate(cfg)
    pipeline = train.build_pipeline(cfg, scene)
    if kind == "train":
        opt = train.SGD(pipeline.parameters(), pipeline.ball_parameters(),
                        lr=cfg.learning_rate, momentum=cfg.momentum,
                        ball=cfg.ball_params())
        return TrainState(cfg, scene, pipeline, opt)
    rng = np.random.default_rng([seed, 1])
    params = {k: v + rng.uniform(-CHECKPOINT_NOISE, CHECKPOINT_NOISE, size=v.shape)
              for k, v in pipeline.state_dict().items()}
    manifest = tensor_io.save_checkpoint(workdir / "checkpoint", params)
    return EvalState(cfg, scene, params, manifest, workdir / "report.csv")


# -- operations ---------------------------------------------------------------


def train_step(state: TrainState):
    """One step exactly as ``train_toy`` runs it; returns the loss tensor.

    The step holds its loss in ``state`` until the next step's forward has
    run, so that the previous tape is freed inside the step, where
    ``train_toy`` frees it by rebinding ``loss``."""
    cfg, opt = state.cfg, state.opt
    step = state.step
    opt.lr = cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * step / cfg.steps))
    opt.zero_grad()
    loss = state.loss = train.scene_loss(state.pipeline, state.scene, cfg,
                                         disable_hmo=cfg.disable_hmo)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"loss non-finite at step {step}")
    state.losses.append(value)
    loss.backward()
    opt.step()
    state.step = (step + 1) % cfg.steps
    return loss


def eval_call(state: EvalState) -> dict:
    return train.evaluate(state.cfg, state.manifest, state.report, scene=state.scene)


# -- checks -------------------------------------------------------------------


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def directional_derivative(state: TrainState, seed: int) -> tuple[float, float]:
    """Reverse-mode derivative of ``scene_loss`` along a unit direction over
    all parameters, and its central difference.

    The direction has seeded random magnitudes and takes its signs from the
    reverse-mode gradient (+ where that is 0). The derivative is then a sum
    of positive terms, large against the rounding of the difference, while
    an entry of the gradient that is wrong, zero or of the wrong sign still
    moves the two numbers apart.
    """
    params = state.pipeline.parameters()
    rng = np.random.default_rng([seed, 2])

    def loss():
        return train.scene_loss(state.pipeline, state.scene, state.cfg,
                                disable_hmo=state.cfg.disable_hmo)

    state.pipeline.zero_grad()
    loss().backward()
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    state.pipeline.zero_grad()
    dirs = [np.abs(rng.normal(size=g.shape)) * np.where(g < 0, -1.0, 1.0) for g in grads]
    norm = math.sqrt(sum(float((d * d).sum()) for d in dirs))
    dirs = [d / norm for d in dirs]
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, dirs))
    originals = [p.data for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, d, o in zip(params, dirs, originals):
            p.data = o + sign * FD_STEP * d
        values.append(loss().item())
    for p, o in zip(params, originals):
        p.data = o
    return analytic, (values[0] - values[1]) / (2.0 * FD_STEP)


def check_directional_derivative(analytic: float, numeric: float) -> list[str]:
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return [f"non-finite directional derivative: {analytic!r} vs {numeric!r}"]
    if not _close(analytic, numeric, FD_RTOL):
        return [f"backward gives {analytic!r} along the probe direction, "
                f"the central difference {numeric!r}"]
    return []


def ball_row_max_norm(state: TrainState) -> float:
    return max(float(np.sqrt((p.data * p.data).sum(axis=-1)).max())
               for p in state.pipeline.ball_parameters())


def check_training_run(losses: list[float], final_loss: float, max_ball_norm: float,
                       eps_ball: float, require_descent: bool) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in losses + [final_loss]):
        problems.append("loss curve holds a non-finite value")
    elif require_descent and not final_loss < losses[0]:
        problems.append(f"final loss {final_loss!r} is not below initial {losses[0]!r}")
    limit = 1.0 - eps_ball
    if not max_ball_norm <= limit * (1.0 + 1e-12):
        problems.append(f"ball parameter row norm {max_ball_norm!r} exceeds {limit!r}")
    return problems


def parse_report(text: str) -> tuple[list[dict], float]:
    lines = text.strip().splitlines()
    if lines[0] != "frame,mpjpe_mm,pa_mpjpe_mm,mpvpe_mm":
        raise ValueError(f"unexpected report header {lines[0]!r}")
    rows = []
    for line in lines[1:-1]:
        frame, mpjpe, pa, mpvpe = line.split(",")
        rows.append({"frame": int(frame), "mpjpe_mm": float(mpjpe),
                     "pa_mpjpe_mm": float(pa), "mpvpe_mm": float(mpvpe)})
    label, accel, _, _ = lines[-1].split(",")
    if label != "sequence_accel_mm_per_frame2":
        raise ValueError(f"unexpected last report row {lines[-1]!r}")
    return rows, float(accel)


def check_eval_call(summary: dict, report_text: str, reference: dict) -> list[str]:
    """Compare one ``evaluate`` call with the independent reference."""
    try:
        rows, accel = parse_report(report_text)
    except (ValueError, IndexError) as exc:
        return [f"report unreadable: {exc}"]
    ref_rows = reference["rows"]
    if len(rows) != len(ref_rows):
        return [f"report has {len(rows)} frame rows, expected {len(ref_rows)}"]
    problems = []
    keys = ("mpjpe_mm", "pa_mpjpe_mm", "mpvpe_mm")
    for got, want in zip(rows, ref_rows):
        if got["frame"] != want["frame"]:
            problems.append(f"row for frame {got['frame']} where {want['frame']} was due")
        for k in keys:
            if not _close(got[k], want[k], REPORT_RTOL, REPORT_ATOL_MM):
                problems.append(f"frame {want['frame']} {k}: report {got[k]!r}, "
                                f"reference {want[k]!r}")
        if not got["pa_mpjpe_mm"] <= got["mpjpe_mm"]:
            problems.append(f"frame {got['frame']}: PA-MPJPE {got['pa_mpjpe_mm']!r} "
                            f"> MPJPE {got['mpjpe_mm']!r}")
    if not _close(accel, reference["accel_mm"], REPORT_RTOL, REPORT_ATOL_MM):
        problems.append(f"acceleration: report {accel!r}, reference {reference['accel_mm']!r}")
    for k in keys:
        mean = sum(r[k] for r in rows) / len(rows)
        if not _close(summary.get(k, math.nan), mean, REPORT_RTOL, REPORT_ATOL_MM):
            problems.append(f"summary {k} {summary.get(k)!r} is not the mean "
                            f"{mean!r} of the report rows")
    if not _close(summary.get("accel_error_mm", math.nan), accel, REPORT_RTOL, REPORT_ATOL_MM):
        problems.append(f"summary accel_error_mm {summary.get('accel_error_mm')!r} "
                        f"differs from the report's {accel!r}")
    return problems


def eval_reference(state: EvalState) -> dict:
    import oracle  # imports hypermesh.checks, which is no part of set-up

    pred_fine = oracle.pipeline_forward(state.params, state.cfg, state.scene)
    return oracle.frame_metrics(pred_fine, state.scene, state.cfg.root_joint)


def retained_grad_bytes(roots: list) -> int | None:
    """Bytes of ``.grad`` arrays left on non-leaf nodes reachable from
    ``roots``; None when there is no root or the tape no longer exposes
    ``_parents``."""
    if not roots or not all(hasattr(r, "_parents") for r in roots):
        return None
    total = 0
    todo = list({id(r): r for r in roots}.values())
    seen = {id(r) for r in todo}
    while todo:
        node = todo.pop()
        if node._parents and node.grad is not None:
            total += node.grad.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return total
