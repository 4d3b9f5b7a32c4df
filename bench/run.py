"""Benchmark command: one run of one workload.

    python3 bench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in its own
single-threaded Python process (``worker.py run``) against ``src/``; set-up
time is the median of several fresh start-ups (``worker.py startup``), half
made before it and half after, so that they span the run. Timed durations
are reported at the reference speed of ``calibrate.py``. The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("train_default", "eval_long", "train_wide")
# Start-ups per run whose median is setup_s: one start-up alone is too
# noisy on a shared machine.
SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 150
STARTUP_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def worker(root: Path, mode: str, *args: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference(durations: list[float], kernels: list[float]) -> list[float]:
    """Durations at the reference speed of ``calibrate.py``."""
    return [d * calibrate.REFERENCE_S / k for d, k in zip(durations, kernels, strict=True)]


def end_to_end(result: dict, startups: list[dict]) -> dict:
    raw = result["latencies_s"]
    if len(raw) < 2:
        raise BenchError(f"only {len(raw)} operations completed in the timed phase")
    lat = at_reference(raw, result["kernel_s"])
    setup = at_reference([s["setup_s"] for s in startups], [s["kernel_s"] for s in startups])
    frames = result["frames_per_op"] * len(lat)
    print(f"{len(lat)} timed operations, {len(startups)} start-ups; as measured, "
          f"before scaling to the reference speed: latency p50 "
          f"{statistics.median(raw) * 1e3:.2f} ms, setup "
          f"{statistics.median(s['setup_s'] for s in startups):.3f} s, kernel "
          f"{statistics.median(result['kernel_s']) * 1e3:.2f} ms")
    return {
        "latency_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_ms_p90": {"value": percentile(lat, 90) * 1e3, "unit": "ms"},
        "frames_per_s": {"value": frames / sum(lat), "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypermesh benchmark, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hypermesh" / "__init__.py").is_file():
        print(f"no src/hypermesh under {root}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]

    def startups(n: int) -> list[dict]:
        samples = []
        for _ in range(n):
            samples.append(worker(root, "startup", *common, timeout=STARTUP_TIMEOUT_S))
            shutil.rmtree(workdir)
            workdir.mkdir()
        return samples

    try:
        samples = [] if args.trace else startups(SETUP_SAMPLES // 2)
        result = worker(root, "run", *common, "--seconds", str(args.seconds),
                        "--trace", str(args.trace), timeout=WORKER_TIMEOUT_S)
        problems = list(result["problems"])
        if args.trace:
            import tracer
            metrics = tracer.per_layer_metrics(result, problems)
        else:
            samples += startups(SETUP_SAMPLES - len(samples))
            metrics = end_to_end(result, samples)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for key, m in metrics.items():
        print(f"{args.workload}/{key} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
