"""Layered benchmark of homcount: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads: count-mix, recover-mix,
images-mix, verify-n4 (see README.md).  A run first builds the package in
place (``setup.py build_ext --inplace``; with no Cython this compiles
nothing and homcount uses its pure-Python kernels), then runs rounds of the
workload until ``--seconds`` have passed, at least one.  A round is a fresh
process (worker.py) that sets up and runs the seeded op list once, one op
at a time.  Every op's output is checked against ``reference``.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
rounds alternate untraced and traced, and the per-layer metrics of the
traced rounds are printed with the tracing overhead.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-run records go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import METRICS as LAYER_METRICS  # noqa: E402
from stats import percentile, tail_percent  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(HERE, "runs")
# A run must end within 180 s; rounds and set-up samples stop here.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5
# Times are reported as if the calibration loop (worker.calibration_loop)
# took this long: each round's times are scaled by this over the loop's mean
# time during that round.  0.4 ms is the loop's time on the 2-vCPU host
# that the reference figures in README.md come from.
CALIBRATION_NOMINAL_S = 0.0004

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


def build() -> None:
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def spawn(workload, seed, mode, traced, directory, deadline, round_index=0):
    """Run one worker to its end; returns (start time, its JSON record)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} round")
    argv = [sys.executable, WORKER, workload, str(seed), mode, "1" if traced else "0", directory,
            str(round_index)]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} round did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def speed_factor(samples):
    """How much faster the host ran than nominal while the samples were taken."""
    return CALIBRATION_NOMINAL_S * len(samples) / sum(samples)


def setup_time(start, rec):
    """Worker start to timed window, less the calibration loop's own time, calibrated."""
    spent = rec["setup_calibration_spent_s"]
    return (rec["ready"] - start - spent) * speed_factor(rec["setup_calibration_s"])


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    ops = wl.ops(seed)
    directory = os.path.join(RUNS, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # Importing once first writes the bytecode caches (where Python writes
    # them), so the first round's set-up costs what the others do.
    _, info = spawn(name, seed, "prime", False, directory, deadline)
    rounds, setups = [], []
    try:
        while not rounds or time.monotonic() - start < seconds:
            for traced in ((False, True) if trace else (False,)):
                t0, rec = spawn(name, seed, "round", traced, directory, deadline, len(rounds))
                rec["traced"] = traced
                rounds.append(rec)
                if not traced:
                    setups.append(setup_time(t0, rec))
        while len(setups) < SETUP_SAMPLES:
            t0, rec = spawn(name, seed, "setup", False, directory, deadline)
            setups.append(setup_time(t0, rec))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = failed = 0
    wrong = []
    first = None
    for rec in rounds:
        codes, outs = rec["codes"], rec["outputs"]
        attempted += len(codes)
        failed += sum(1 for c in codes if c != 0)
        if first is None:
            errors = wl.check(ops, codes, outs)
            first = (codes, outs, errors)
        else:
            # Output is byte-deterministic: equal to the checked round, or checked afresh.
            errors = list(first[2])
            if (codes, outs) != first[:2]:
                errors = wl.check(ops, codes, outs)
        wrong += [(i, e) for i, (c, e) in enumerate(zip(codes, errors)) if c == 0 and e]

    for r in rounds:
        r["speed_factor"] = speed_factor(r["calibration_s"])
    plain = [r for r in rounds if not r["traced"]]
    # Every round runs the same op list: an op's latency is its median over
    # the rounds, and the percentiles are taken over the ops.
    latencies = [median(r["latencies"][i] * r["speed_factor"] for r in plain)
                 for i in range(len(ops))]
    p_tail = tail_percent(len(ops))
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(r["wall_s"] * r["speed_factor"] for r in plain),
        "latency_p50_ms": 1000 * median(latencies),
        # Fewer ops than the tail rule needs (verify-n4): the largest.
        "latency_tail_ms": 1000 * (percentile(latencies, p_tail) if p_tail else max(latencies)),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }
    units = dict(END_TO_END)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {}
        for key in traced[0]["layers"]:
            scale = key.endswith("_s") or key.endswith(".s")
            layers[key] = median(r["layers"][key] * (r["speed_factor"] if scale else 1) for r in traced)
        traced_wall = median(r["wall_s"] * r["speed_factor"] for r in traced)
        layers["trace.overhead_pct"] = 100 * (traced_wall / metrics["wall_s"] - 1)
        metrics = layers
        units = {m: u for m, u, _ in LAYER_METRICS}

    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "backend": info["backend"], "python": info["python"],
        "rounds": len(plain), "traced_rounds": len(rounds) - len(plain),
        "ops_per_round": len(ops), "tail_percentile": p_tail, "setup_samples_s": setups,
        "wrong": [{"op": i, "error": e} for i, e in wrong[:20]],
    }
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = dict(summary, result=result, rounds=[
        {k: v for k, v in r.items() if k != "outputs"} for r in rounds])
    os.makedirs(RUNS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(RUNS, f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return summary, result


def report(summary, result) -> None:
    tail = summary["tail_percentile"]
    print(f"# {summary['workload']}: seed {summary['seed']}, backend {summary['backend']}, "
          f"python {summary['python']}, {summary['rounds']} rounds "
          f"(+{summary['traced_rounds']} traced) of {summary['ops_per_round']} ops, "
          f"tail {'p%d' % tail if tail else 'max (fewer than 40 ops a round)'}")
    for m, v in result["metrics"].items():
        print(f"{summary['workload']}  {m:45s} {v['value']:14.6g} {v['unit']}")
    print(f"{summary['workload']}  attempted {result['attempted']}  failed {result['failed']}"
          f"  correct {str(result['correct']).lower()}")
    for w in summary["wrong"]:
        print(f"{summary['workload']}  wrong output at op {w['op']}: {w['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        build()
        results = []
        for name in names:
            summary, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(summary, result)
            results.append((name, result))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{m}": v for n, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
