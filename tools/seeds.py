"""Survey default training over seeds 0-8, full and ablated.

For each seed ``s`` it runs ``train_toy`` on ``PipelineConfig(seed=s)`` and on
``PipelineConfig(seed=s, disable_hmo=True)``, each for the default 1,500
steps, and prints one JSON line per seed with each run's initial, peak and
final loss. Each seed runs in a fresh interpreter with
``OPENBLAS_NUM_THREADS=1`` and imports ``hypermesh`` from this checkout's
``src/``, through ``tools/artifacts.py``'s ``fresh_run``. It takes about 4-5
minutes on two cores.

Usage::

    python tools/seeds.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from artifacts import fresh_run  # tools/ is on the path when this runs as a script

SEEDS = range(9)


def run_seed(seed: int) -> dict:
    """Both runs of one seed in this process; its line of the survey."""
    from hypermesh.config import PipelineConfig
    from hypermesh.train import train_toy

    line = {"seed": seed}
    for name, ablate in (("full", False), ("disable_hmo", True)):
        with tempfile.TemporaryDirectory() as tmp:
            losses = train_toy(PipelineConfig(seed=seed, disable_hmo=ablate),
                               out_dir=tmp).losses
        line[name] = {"initial": losses[0], "peak": max(losses), "final": losses[-1]}
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)  # one child's seed
    args = parser.parse_args(argv)
    if args.seed is not None:
        print(json.dumps(run_seed(args.seed)))
        return 0
    for seed in SEEDS:
        stdout = fresh_run([__file__, "--seed", str(seed)], f"seed {seed}")
        print(stdout.splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
