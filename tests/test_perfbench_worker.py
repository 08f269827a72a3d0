"""The benchmark's worker runs against the library in every workload.

perfbench/worker.py imports homcount, reports homcount.backend_name() and,
in setup mode, runs every warm-up op through cli.main; a change that
breaks any of that fails here, in subprocesses like the benchmark's own.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("mode", ["prime", "setup"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_prime_and_setup_exit_0_with_a_json_record(workload, mode, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "1", mode, "0",
         str(tmp_path), "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["backend"] == "pure"
