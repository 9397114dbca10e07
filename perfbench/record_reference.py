"""Record the output digests that run.py checks at the default seed.

    python3 perfbench/record_reference.py

Runs one pass of every workload at workloads.DEFAULT_SEED, with every output
check on, and writes the per-op digests of the exact outputs to
reference.json.  Re-record only when a change to the program is meant to
change its outputs; an optimisation that changes one bit is a bug.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from speed import Speedometer
import workloads


def main() -> int:
    if not run.use_sources():
        return 2
    ref = {}
    for name in workloads.WORKLOADS:
        workdir = run.ROOT / ".bench_work" / f"reference-{name}"
        try:
            speed = Speedometer()
            _, p, _, _ = run.set_up(name, workloads.DEFAULT_SEED, workdir, speed)
            p.prepare()
            r = run.Run(p, None, speed)
            r.one_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if r.failed:
            print("\n".join(r.errors), file=sys.stderr)
            return 1
        ref[name] = r.first
        print(f"{name}: {len(r.first)} ops", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
