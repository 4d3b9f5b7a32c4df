"""Steadiness of the benchmark: repeated runs, interleaved across workloads.

    python3 bench/steady.py --repeats 10 [--seed 100] [--traced]

Run from the root of a checkout. Every run lasts ``run_seconds`` of
BENCHMARK.json. Round r runs every workload once with seed ``--seed + r``, in an order rotated each round, so that a drift of machine
speed over minutes spreads over all workloads instead of landing on one.
For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(n=4)``), and the spread
(q3 - q1) / median against the bound in BENCHMARK.json; and the share of
failed operations. It exits with 1 if any spread is over its bound, a run
is not correct, or the failed share differs between runs of a workload. With ``--traced`` it also makes two traced runs of each
workload with the same seed and checks that every count repeats exactly.
Raw results go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for r in range(args.repeats):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            res = one_run(w, args.seed + r, seconds, 0)
            runs[w].append(res)
            e2e = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"round {r} {w}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={res['wall_s']:.1f}s {e2e}", flush=True)

    ok = True
    print(f"\n{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        for m in spec["end_to_end"]:
            values = [res["metrics"][m["name"]]["value"] for res in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            bound = m["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
            print(f"{w + '/' + m['name']:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.3f} {verdict}")
        shares = {res["failed"] / res["attempted"] for res in runs[w]}
        correct = all(res["correct"] for res in runs[w])
        ok = ok and correct and len(shares) == 1
        print(f"{w}: failed share {sorted(shares)}, all correct: {correct}, "
              f"run wall {min(r['wall_s'] for r in runs[w]):.0f}-"
              f"{max(r['wall_s'] for r in runs[w]):.0f} s")

    traced = {}
    if args.traced:
        for w in workloads:
            pair = [one_run(w, args.seed, seconds, 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] == "count" and k != "gc.gen2_collections"}
                      for res in pair]
            same = counts[0] == counts[1]
            ok = ok and same and all(res["correct"] for res in pair)
            traced[w] = pair
            print(f"{w}: traced counts repeat exactly: {same}; tracing overhead "
                  + ", ".join(f"{res['metrics']['trace.overhead_pct']['value']:.1f} %"
                              for res in pair))

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"args": vars(args), "runs": runs, "traced": traced}, indent=1))
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
