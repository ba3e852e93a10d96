"""Benchmark entry point: one workload, one seed, under a watchdog.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer
metrics and ledger.  The last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 only when every operation and check succeeded.

The workload runs in a child process in its own process group.  The
watchdog bounds it from outside: a run that has not finished by the
deadline (a hung worker, a stuck queue) is killed together with any
worker processes it started and reported as a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "offline", "serve")
#: Every run must end within this many seconds, set-up and checks included.
DEADLINE_S = 170.0


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CocoSketch end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    returncode, out = supervise(cmd, DEADLINE_S)
    sys.stdout.write(out)
    if returncode is None:
        print(f"# watchdog: {args.workload} did not finish in {DEADLINE_S:.0f} s")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    sys.stdout.flush()
    return returncode


def supervise(cmd, deadline_s: float):
    """Run *cmd* in its own process group; ``(returncode, stdout)``.

    The return code is ``None`` when the deadline passed: the whole
    group (the child and any worker processes it started) is killed.
    Survivors of a finished child's group are killed as well.
    """
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=deadline_s)
        returncode = child.returncode
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        out, _ = child.communicate()
        returncode = None
    finally:
        _kill_group(child.pid)
    return returncode, out


if __name__ == "__main__":
    sys.exit(main())
