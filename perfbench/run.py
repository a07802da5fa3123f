"""Pipeline benchmark of maxstorm: simulate and fit stage times per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload long-series --seed 1 --seconds 20 --trace 0

Each workload runs in fresh processes started from ``perfbench/worker.py``:
a few set-up probes, which stop once set-up is done, and one measured run.
``setup_s`` is the median, over all of them, of the time from process start
to ready.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when the run completed; a failed correctness check
still exits 0 and reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("long-series", "study-field", "many-small")
SETUP_PROBES = 2
# Whole run, set-up probes included, must end well inside three minutes.
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def start_worker(args: argparse.Namespace, setup_only: bool):
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def wait_ready(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from ``t0`` until the worker printed READY."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise WorkerError(f"worker did not get ready (said {line.strip()!r})")
    return time.perf_counter() - t0


def finish(proc: subprocess.Popen) -> str:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    def over_time(signum, frame):
        raise TimeoutError(f"run took longer than {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, over_time)
    signal.alarm(DEADLINE_S)
    started = time.perf_counter()
    setups = []
    proc = None
    try:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = start_worker(args, setup_only=True)
            setups.append(wait_ready(proc, t0))
            finish(proc)
        t0 = time.perf_counter()
        proc = start_worker(args, setup_only=False)
        setups.append(wait_ready(proc, t0))
        out = finish(proc)
    except (WorkerError, TimeoutError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        signal.alarm(0)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    lines = out.strip().splitlines()
    if not lines:
        sys.stderr.write("perfbench: worker printed no result\n")
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    sys.stderr.write(
        f"perfbench: {args.workload} seed {args.seed}: {result['passes']} passes, "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s, "
        f"run {time.perf_counter() - started:.1f} s\n"
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
