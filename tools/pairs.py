"""Paired benchmark runs of a parent revision against this checkout.

Both sides run from exports (``git archive``) in one temporary directory,
which is removed at the end: the parent's committed files, and a snapshot of
this checkout that ``git stash create`` makes, uncommitted edits to tracked
files included. So both sides run from the same kind of location, and what
runs is what is hashed. Pair ``i`` (from 0) runs ``bench/run.py --trace 0``
once in each tree, on seed ``1 + i``, for every workload; the side that runs
first alternates from pair to pair, so that a drift of the host's speed falls
on both sides alike. Each tree runs its own ``bench/``.

Writes ``BENCH_<label>.json`` at the root of this checkout. Per workload and
end-to-end metric of ``BENCHMARK.json`` it holds the parent's and the
change's median and quartiles, the change's wins (pairs in which it is
better), the relative change of the medians, the metric's bound, and whether
the claim rule below holds; then every run's raw result and the host's CPU
count. Each side's revision is its commit and the git tree hashes of the
``src`` and ``bench`` it ran; for this checkout those hash the snapshot, so
``git rev-parse REV:src`` tells whether a commit holds the measured code.

With ``--trace``, after the pairs each tree also runs ``bench/run.py --trace
1`` three times per workload, on seeds 1 to 3, the side that runs first
alternating as in the pairs. The file holds those runs beside the end-to-end
metrics, and per workload, side and per-layer metric of ``BENCHMARK.json``
the median, minimum and maximum of the three: one traced run a side shows no
spread between runs.

Usage::

    python tools/pairs.py --parent REV --label NAME [--workloads W ...]
                          [--pairs N] [--seconds S] [--trace]

``--pairs`` defaults to 10 and ``--seconds`` to the benchmark's run length.

Exits 1 if any run fails or reports an incorrect result; the file is
written either way. Exits 2 before any run if ``src/`` or ``bench/`` holds an
untracked file, which the snapshot would leave out.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3
MIN_CLAIM_PAIRS = 10
CLAIM_RULE = (f"a gain is claimed only from at least {MIN_CLAIM_PAIRS} pairs, when the "
              "change is better in at least 9 of 10 of them and its median is better than "
              "the parent's by more than the parent's interquartile range")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=zip", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as files:
        files.extractall(dest)


def revision(rev: str | None) -> tuple[dict, str]:
    """The commit of ``rev`` and the tree hashes of its ``src`` and ``bench``,
    and the commit to export; ``None`` is this checkout as it is on disk."""
    commit = git("rev-parse", rev or "HEAD")
    snapshot = rev or git("stash", "create") or commit
    trees = {d: git("rev-parse", f"{snapshot}:{d}") for d in ("src", "bench")}
    return {"commit": commit, **trees}, snapshot


def bench_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in ``root``: its JSON line, or a failed record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
    change = [p["change"]["metrics"][name]["value"] for p in pairs]
    wins = sum((c < a) if lower else (c > a) for a, c in zip(parent, change))
    q_parent = statistics.quantiles(parent, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    gain = (q_parent[1] - q_change[1]) if lower else (q_change[1] - q_parent[1])
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": {"median": q_parent[1], "q1": q_parent[0], "q3": q_parent[2]},
        "change": {"median": q_change[1], "q1": q_change[0], "q3": q_change[2]},
        "relative_change": q_change[1] / q_parent[1] - 1.0,
        "wins": wins, "pairs": len(pairs),
        "claimable": (len(pairs) >= MIN_CLAIM_PAIRS and wins >= 0.9 * len(pairs)
                      and gain > q_parent[2] - q_parent[0]),
    }


def spread(traced: list[dict], per_layer: list[dict]) -> dict:
    """Per per-layer metric and side, the median, minimum and maximum over
    the traced runs that report it."""
    out = {}
    for metric in per_layer:
        name, sides = metric["name"], {}
        for side in ("parent", "change"):
            values = [run[side]["metrics"][name]["value"] for run in traced
                      if name in run[side].get("metrics", {})]
            if values:
                sides[side] = {"median": statistics.median(values),
                               "min": min(values), "max": max(values)}
        if sides:
            out[name] = {"unit": metric["unit"], "better": metric["better"], **sides}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", action="store_true",
                        help=f"add {TRACED_RUNS} traced runs per side and workload: "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "bench")
    if untracked:
        parser.error("untracked files would be left out of the change's snapshot: "
                     + ", ".join(untracked.splitlines()))

    revisions, snapshots = {}, {}
    for side, rev in (("parent", args.parent), ("change", None)):
        revisions[side], snapshots[side] = revision(rev)
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in snapshots}
        for side, snapshot in snapshots.items():
            export(snapshot, roots[side])
        for i in range(args.pairs):
            seed = 1 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in args.workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench_once(roots[side], w, seed, args.seconds)
                    p50 = pair[side].get("metrics", {}).get("latency_ms_p50", {}).get("value")
                    print(f"pair {i + 1}/{args.pairs} {w} {side}: p50 {p50} ms, "
                          f"correct {pair[side]['correct']}", file=sys.stderr)
                runs[w].append(pair)
        traces: dict[str, list[dict]] = {w: [] for w in args.workloads if args.trace}
        for i in range(TRACED_RUNS if args.trace else 0):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in args.workloads:
                traces[w].append({"seed": 1 + i, "first": order[0],
                                  **{side: bench_once(roots[side], w, 1 + i, args.seconds,
                                                      trace=1) for side in order}})

    incorrect = [(w, f"{p['seed']}{kind}", side)
                 for kind, groups in (("", runs), (" traced", traces))
                 for w, pairs in groups.items() for p in pairs
                 for side in ("parent", "change") if not p[side]["correct"]]
    metrics = {w: {m["name"]: summarize(pairs, m) for m in spec["end_to_end"]}
               for w, pairs in runs.items() if not any(w == bad[0] for bad in incorrect)}
    report = {"label": args.label, "revisions": revisions, "cpu_count": os.cpu_count(),
              "protocol": {"pairs": args.pairs, "seconds": args.seconds,
                           "seeds": [1, args.pairs],
                           "command": "bench/run.py --trace 0", "claim_rule": CLAIM_RULE},
              "metrics": metrics, "runs": runs}
    if args.trace:
        report["per_layer"] = {w: {"spread": spread(traced, spec["per_layer"]), "runs": traced}
                               for w, traced in traces.items()}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    for w, bad_seed, side in incorrect:
        print(f"incorrect run: {w} seed {bad_seed} {side}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
