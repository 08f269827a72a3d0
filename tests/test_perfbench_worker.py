"""The benchmark's worker runs against the library in every workload.

perfbench/worker.py imports homcount, reports homcount.backend_name() and,
in setup mode, runs every warm-up op through cli.main; in round mode it
also runs the op list once, and every output must pass the workload's own
check against perfbench/reference.py.  A change that breaks any of that
fails here, in subprocesses like the benchmark's own.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _worker_record(workload, mode, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "1", mode, "0",
         str(tmp_path), "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("mode", ["prime", "setup"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_prime_and_setup_exit_0_with_a_json_record(workload, mode, tmp_path):
    assert _worker_record(workload, mode, tmp_path)["backend"] == "pure"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_round_passes_the_workload_check(workload, tmp_path, monkeypatch):
    record = _worker_record(workload, "round", tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    wl = importlib.import_module("workloads").WORKLOADS[workload]
    ops = wl.ops(1)
    assert record["codes"] == [0] * len(ops)
    errors = wl.check(ops, record["codes"], record["outputs"])
    assert [(i, e) for i, e in enumerate(errors) if e is not None] == []
