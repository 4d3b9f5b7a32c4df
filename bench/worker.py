"""One workload in one single-threaded process.

``startup`` mode times one set-up, from ``import hypermesh`` (numpy already
imported) until the first operation could start, and prints it with the
time of the reference kernel (``calibrate.py``) around it.

``run`` mode sets the workload up, checks the program's outputs before,
during and after a closed loop of operations (one client, the next
operation starts when the previous one has returned), and prints one JSON
object with the latencies and the check results. With ``--trace 0`` the
reference kernel runs after every operation, and each latency comes with the
mean kernel time before and after it. With ``--trace 1``
operations alternate between untraced and traced, so that the tracing
overhead is measured against the same stretch of time. One more traced
operation after the timed phase keeps its tape, to measure the gradient
memory it leaves behind.

Run it through ``run.py``, which sets PYTHONPATH and the thread limits.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (set-up is timed with numpy already imported)

perf = time.perf_counter


def startup(args) -> None:
    import statistics

    import calibrate

    # the kernel runs slower in a fresh process: one warm-up, then medians of 3
    calibrate.kernel_s()
    before = statistics.median(calibrate.kernel_s() for _ in range(3))
    t0 = perf()
    import hypermesh  # noqa: F401
    import workloads
    workloads.setup(args.workload, args.seed, Path(args.workdir))
    setup_s = perf() - t0
    after = statistics.median(calibrate.kernel_s() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "kernel_s": (before + after) / 2}))


def run(args) -> None:
    t0 = perf()
    import hypermesh  # noqa: F401
    import workloads
    import_s = perf() - t0
    from hypermesh.errors import HypermeshError

    name, seed, workdir = args.workload, args.seed, Path(args.workdir)
    kind = workloads.WORKLOADS[name]["kind"]
    problems: list[str] = []
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    state = workloads.setup(name, seed, workdir)
    setup_snap = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()

    # -- checks made once, before the timed phase ----------------------------
    if kind == "train":
        analytic, numeric = workloads.directional_derivative(state, seed)
        problems += workloads.check_directional_derivative(analytic, numeric)
        print(f"directional derivative: backward {analytic!r}, "
              f"central difference {numeric!r}", file=sys.stderr)
        op = workloads.train_step
    else:
        state.reference = workloads.eval_reference(state)
        op = workloads.eval_call

    def checked(result) -> list[str]:
        if kind == "eval":
            return workloads.check_eval_call(result, state.report.read_text(),
                                             state.reference)
        return []

    # warm-up operation: fills caches, and is the first point of the loss curve
    problems += checked(op(state))

    latencies: list[float] = []
    kernels: list[float] = []
    traced_latencies: list[float] = []
    op_snaps: list[dict] = []
    attempted = failed = 0
    traced_op = tracer.root(op) if tracer else None
    # traced or not is drawn per operation, not alternated: the collector's
    # generation-2 passes recur every few steps and would keep to one side
    coin = random.Random(seed)
    calibrated = tracer is None
    if calibrated:
        import calibrate
        calibrate.kernel_s()  # warm-up
        kernel = calibrate.kernel_s()
    deadline = perf() + args.seconds
    while perf() < deadline:
        trace_this = tracer is not None and coin.random() < 0.5
        if trace_this:
            tracer.install()
            tracer.reset()
        attempted += 1
        fn = traced_op if trace_this else op
        # the last result must not outlive it inside the operation: a training
        # step frees the previous tape itself, as train_toy does
        result = None
        t_start = perf()
        try:
            result = fn(state)
        except HypermeshError as exc:
            failed += 1
            print(f"operation {attempted} failed: {exc}", file=sys.stderr)
            continue
        finally:
            latency = perf() - t_start
            if trace_this:
                tracer.uninstall()
            if calibrated:
                before, kernel = kernel, calibrate.kernel_s()
        errors = checked(result)
        if errors:
            failed += 1
            print(f"operation {attempted} failed its check: {errors[:3]}", file=sys.stderr)
            continue
        if not trace_this:
            latencies.append(latency)
            if calibrated:
                kernels.append((before + kernel) / 2)
            continue
        traced_latencies.append(latency)
        snap = tracer.snapshot()
        problems += [f"op {attempted}: {e}" for e in tracing.accounting_errors(snap, latency)]
        op_snaps.append(snap)

    retained = None
    if tracer:
        # the kept tape would move its freeing out of the operation, so this
        # operation is timed by none of the figures above
        tracer.install()
        tracer.reset()
        tracer.keep_tape_roots = True
        result = op(state)
        tracer.uninstall()
        problems += checked(result)
        roots = tracer.tape_roots + ([result] if kind == "train" else [])
        retained = workloads.retained_grad_bytes(roots)
        tracer.keep_tape_roots = False
        tracer.reset()
        del roots, result

    # -- checks made once, after the timed phase -----------------------------
    end_snap = None
    if kind == "train":
        final = workloads.train.scene_loss(state.pipeline, state.scene, state.cfg,
                                           disable_hmo=state.cfg.disable_hmo).item()
        problems += workloads.check_training_run(
            state.losses, final, workloads.ball_row_max_norm(state),
            state.cfg.ball_params().eps_ball,
            require_descent=workloads.REQUIRE_DESCENT[name])
        # a training run writes its checkpoint once, at the end, as train_toy does
        if tracer:
            tracer.install()
        workloads.tensor_io.save_checkpoint(workdir / "final", state.pipeline.state_dict())
        if tracer:
            end_snap = tracer.snapshot()
            tracer.uninstall()

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "latencies_s": latencies,
        "kernel_s": kernels,
        "frames_per_op": state.cfg.t_frames,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        saved = workdir / ("checkpoint" if kind == "eval" else "final")
        checkpoint = [f for f in saved.iterdir() if f.is_file()]
        out["trace"] = {
            "import_s": import_s,
            "missing": tracer.missing,
            "setup": setup_snap,
            "end": end_snap,
            "ops": op_snaps,
            "retained_grad_bytes": retained,
            "traced_latencies_s": traced_latencies,
            "checkpoint_files": len(checkpoint),
            "checkpoint_bytes": sum(f.stat().st_size for f in checkpoint),
        }
    print(json.dumps(out))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("startup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    (startup if args.mode == "startup" else run)(args)


if __name__ == "__main__":
    main()
