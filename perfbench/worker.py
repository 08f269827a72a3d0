"""One round of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py <workload> <seed> <mode> <trace> <dir> <round>

mode is ``prime`` (import homcount, report its backend and exit),
``setup`` (set up, then exit) or ``round`` (set up, then run the op list
once, timed).  Set-up is the import, input generation, graph files in
<dir>, and one warm-up op per distinct target.  The op list is timed op by
op with ``cli.main`` called in this process, stdout captured, in an order
drawn from the seed and <round>: host speed varies within a round, and an
op that always ran at the same point would carry that point's speed.
Results are reported in op-list order.  The last line printed is a JSON
record for run.py.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from reference import to_text  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Host speed on a shared machine drifts by a fifth within seconds.  A fixed
# pure-Python loop, timed from a wall-clock timer signal every
# CALIBRATE_EVERY_S during the timed window, measures that speed; run.py
# scales the round's times by CALIBRATION_NOMINAL_S over the loop's mean
# time.  The loop's own time is taken out of every op it lands in.
CALIBRATE_EVERY_S = 0.05
CALIBRATION_ITERATIONS = 3000


def calibration_loop():
    table = {}
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 63] = acc
        acc += i * i % 7
    return acc


class Calibrator:
    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        # One sample on each side of the window, so a window shorter than
        # the timer period still has some.
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)


def _materialize(ops, directory, paths):
    """Replace graph arguments by paths of files holding them."""
    argvs = []
    for op in ops:
        argv = []
        for arg in op:
            if isinstance(arg, tuple):
                if arg not in paths:
                    paths[arg] = os.path.join(directory, f"g{len(paths)}.graph")
                    with open(paths[arg], "w", encoding="utf-8") as fh:
                        fh.write(to_text(arg))
                arg = paths[arg]
            argv.append(arg)
        argvs.append(argv)
    return argvs


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def set_up(cli, name, seed, directory):
    """Inputs, graph files and warm-up; returns the op list as argument lists."""
    wl = WORKLOADS[name]
    paths = {}
    ops = _materialize(wl.ops(seed), directory, paths)
    for op in _materialize(wl.warmup(seed), directory, paths):
        code, _, err = _run(cli, op)
        if code != 0:
            raise RuntimeError(f"warm-up op {op} exited {code}: {err}")
    return ops


def main(argv):
    name, seed, mode, trace, directory, round_index = (
        argv[1], int(argv[2]), argv[3], argv[4] == "1", argv[5], int(argv[6]))
    with Calibrator() as setup_cal:
        import homcount
        from homcount import cli

        ops = None if mode == "prime" else set_up(cli, name, seed, directory)
    record = {"backend": homcount.backend_name(), "python": platform.python_version(),
              "setup_calibration_s": setup_cal.samples, "setup_calibration_spent_s": setup_cal.spent}
    if mode == "prime":
        print(json.dumps(record))
        return 0
    if mode == "setup":
        record["ready"] = time.monotonic()
        print(json.dumps(record))
        return 0

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    record["ready"] = time.monotonic()
    clock = time.perf_counter
    order = list(range(len(ops)))
    random.Random(f"{seed}/{round_index}").shuffle(order)
    latencies, codes, outs = [0.0] * len(ops), [0] * len(ops), [""] * len(ops)
    with Calibrator() as cal:
        t_start, spent_start = clock(), cal.spent
        for i in order:
            t0, spent0 = clock(), cal.spent
            code, out, err = _run(cli, ops[i])
            latencies[i] = clock() - t0 - (cal.spent - spent0)
            codes[i] = code
            outs[i] = out if code == 0 else out + err
        record["wall_s"] = clock() - t_start - (cal.spent - spent_start)
    record["calibration_s"] = cal.samples
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["functions"] = tracer.functions()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(latencies=latencies, codes=codes, outputs=outs)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
