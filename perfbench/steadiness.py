"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload certify --seeds 1-10 [--seconds 20]

Each run is a fresh process of run.py with --trace 0.  For every end-to-end
metric it prints the median of the runs and the spread, the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the bound from BENCHMARK.json.  Spreads should stay below a
third of their bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: m["value"] for k, m in last["metrics"].items()}
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "spread": spread, "bound": bounds.get(name)}
        print(f"{name:14s} median {med:.5g}  spread {spread:.4f}  "
              f"bound {bounds.get(name)}  (runs {len(vals)})")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
