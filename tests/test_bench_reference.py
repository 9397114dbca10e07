"""The benchmark's seed-0 passes reproduce its recorded output digests.

perfbench/reference.json holds, per workload, the digest of every op's
checked output at the default seed.  Each test here builds that workload's
pass from perfbench/workloads.py on the iqprox modules already imported,
runs every op once and its check, and compares the digests, so a change
that moves one bit of an output fails here and not only in a benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench():
    """perfbench/run.py as a module; it puts perfbench/ on the import path
    and imports workloads from there."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.fixture(scope="module")
def bench():
    saved = list(sys.path)
    try:
        yield load_bench()
    finally:
        sys.path[:] = saved


@pytest.mark.parametrize("workload", ["certify", "solve", "families"])
def test_seed0_pass_matches_reference(bench, tmp_path, workload):
    mods = SimpleNamespace(**{m: importlib.import_module(f"iqprox.{m}")
                              for m in bench.MODULES})
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    p = bench.workloads.WORKLOADS[workload](mods, bench.workloads.DEFAULT_SEED,
                                           str(tmp_path))
    p.prepare()
    assert len(p.ops) == len(reference)
    got = [bench.digest(op.check(op.run())) for op in p.ops]
    assert [i for i, (a, b) in enumerate(zip(got, reference)) if a != b] == []
