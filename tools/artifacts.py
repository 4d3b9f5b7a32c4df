"""Hash the fixed set of training and evaluation artifacts.

Each run starts in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` and
imports ``hypermesh`` from this checkout's ``src/``. A hash is the first 16
hex digits of sha256. A checkpoint's hash covers its content as
``load_checkpoint`` returns it: each entry's name, shape and ``<f8`` bytes,
in sorted-name order. So it holds across a change of the file layout. The
runs:

- ``default``, ``train_wide`` and ``disable_hmo``: ``train_toy`` for 60 steps;
- ``t_frames_32``: ``train_toy`` for 20 steps;
- ``template``: ``train_toy`` for 20 steps from a template file of
  U(-0.5, 0.5) vertices drawn from ``default_rng(5)``, written into the run's
  temporary directory;
- ``eval_t4`` and ``eval_t32``: ``evaluate`` at seed 3, from the initial
  parameters plus U(-0.02, 0.02) noise drawn from ``default_rng([3, 1])``;
- ``criterion_8``: the final losses of acceptance criterion 8's full and
  ablated 1,500-step runs (about a minute);
- ``propcheck_figures``: every figure that ``hypermesh.checks.run_propchecks``
  compares with a bound, one ``figure=repr(value)`` line each, in one hash;
- ``gradcheck`` and ``propcheck``: the stdout of ``python -m hypermesh.cli
  gradcheck`` and ``propcheck``, which print each check's error or case count.
  ``propcheck`` prints no figure, so only ``propcheck_figures`` sees a bit that
  moves inside a passing property check.

Usage::

    python tools/artifacts.py                               # print the table as JSON
    python tools/artifacts.py --against tools/artifacts.json

With ``--against`` it exits 1 and names every run whose entry differs from
the file's. The hashes depend on the BLAS and libm in use, so the committed
table holds on the machine that recorded it, not on every machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIDE = {"model_dim": 128, "heads": 4, "n_coarse": 32, "n_fine": 128, "learning_rate": 0.001}
TRAIN_RUNS = {
    "default": {"steps": 60},
    "train_wide": {**WIDE, "steps": 60},
    "disable_hmo": {"disable_hmo": True, "steps": 60},
    "t_frames_32": {"t_frames": 32, "steps": 20},
    "template": {"steps": 20},  # template_mesh_path: a file that run_one writes
}
EVAL_RUNS = {"eval_t4": {"seed": 3}, "eval_t32": {"seed": 3, "t_frames": 32}}
CLI_RUNS = ("gradcheck", "propcheck")
RUNS = [*TRAIN_RUNS, *EVAL_RUNS, "criterion_8", "propcheck_figures", *CLI_RUNS]
EVAL_NOISE = 0.02


def digest(path: Path) -> str:
    """sha256 prefix of a file's bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def checkpoint_digest(manifest: Path) -> str:
    """sha256 prefix of a checkpoint's entries: name and shape as JSON, then
    the ``<f8`` bytes, in sorted-name order."""
    from hypermesh.tensor_io import load_checkpoint

    h = hashlib.sha256()
    for name, arr in sorted(load_checkpoint(manifest).items()):
        h.update(json.dumps([name, list(arr.shape)]).encode())
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()[:16]


def propcheck_figures() -> tuple[str, list[dict]]:
    """sha256 prefix of every figure the property checks hand to
    ``checks._below``, as ``figure=repr(value)`` lines, and the checks' rows."""
    from hypermesh import checks

    h = hashlib.sha256()
    below = checks._below

    def recording_below(figure, value, bound):
        h.update(f"{figure}={value!r}\n".encode())
        below(figure, value, bound)

    checks._below = recording_below
    try:
        rows = checks.run_propchecks()
    finally:
        checks._below = below
    return h.hexdigest()[:16], rows


def run_one(name: str, workdir: Path) -> dict:
    """One run in this process; its entry of the table."""
    import numpy as np

    from hypermesh.config import PipelineConfig
    from hypermesh.synth import synth_generate
    from hypermesh.tensor_io import save_checkpoint, save_tensor
    from hypermesh.train import build_pipeline, evaluate, train_toy

    if name in TRAIN_RUNS:
        config = TRAIN_RUNS[name]
        if name == "template":
            path = workdir / "template.gymt"
            save_tensor(path, np.random.default_rng(5).uniform(-0.5, 0.5, (8, 3)))
            config = {**config, "template_mesh_path": str(path)}
        result = train_toy(PipelineConfig(**config), out_dir=workdir)
        return {"loss_curve": digest(result.loss_curve_path),
                "checkpoint": checkpoint_digest(result.checkpoint_path)}
    if name in EVAL_RUNS:
        cfg = PipelineConfig(**EVAL_RUNS[name])
        scene = synth_generate(cfg)
        rng = np.random.default_rng([cfg.seed, 1])
        params = {k: v + rng.uniform(-EVAL_NOISE, EVAL_NOISE, size=v.shape)
                  for k, v in build_pipeline(cfg, scene).state_dict().items()}
        manifest = save_checkpoint(workdir / "checkpoint", params)
        evaluate(cfg, manifest, workdir / "report.csv", scene=scene)
        return {"report": digest(workdir / "report.csv")}
    if name == "propcheck_figures":
        return {"figures": propcheck_figures()[0]}
    full = train_toy(PipelineConfig(), out_dir=workdir / "full")
    ablated = train_toy(PipelineConfig(disable_hmo=True), out_dir=workdir / "ablated")
    return {"full": full.final_loss, "ablated": ablated.final_loss}


def fresh_run(args: list[str], label: str) -> str:
    """The stdout of ``python *args`` in a fresh interpreter with one OpenBLAS
    thread and this checkout's ``src/`` first on the path; exits naming
    ``label`` if the child fails."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{label} failed (exit {proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def table() -> dict:
    """Every run, each in a fresh interpreter."""
    out = {}
    for name in RUNS:
        cli = name in CLI_RUNS
        stdout = fresh_run(["-m", "hypermesh.cli", name] if cli else [__file__, "--run", name],
                           f"run {name}")
        out[name] = ({"stdout": hashlib.sha256(stdout.encode()).hexdigest()[:16]} if cli
                     else json.loads(stdout.splitlines()[-1]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="a table to compare with")
    parser.add_argument("--run", choices=RUNS[:-len(CLI_RUNS)], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(run_one(args.run, Path(tmp))))
        return 0
    got = table()
    print(json.dumps(got, indent=2))
    if args.against is None:
        return 0
    want = json.loads(args.against.read_text())
    differ = [name for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)]
    for name in differ:
        print(f"differs: {name}: {want.get(name)} -> {got.get(name)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
