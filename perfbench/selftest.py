"""Tiny-size self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Checks, at toy sizes:

* every workload, untraced and traced, passes its checks and prints
  every metric named in ``BENCHMARK.json`` (and, untraced, the ungated
  end-to-end metrics) with its unit;
* a deliberately corrupted epoch blob fails the ``ingest`` blob check
  and a refused ``serve`` query fails — each shows up in ``error_rate``;
* the watchdog ends a run that hangs in ``StreamDriver.results()``
  after a worker error.

Exits non-zero when any of these does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import run
import workloads as wl

#: A run that hangs: a worker raises, the driver waits for its result.
HANG = """
import sys
sys.path.insert(0, "src")
import numpy as np
from repro import parallel
from repro.engine.sharded import ShardedSketch, SketchSpec

def fail(*args, **kwargs):
    raise RuntimeError("injected worker failure")

parallel._ShardRun.consume = fail
cols = (np.arange(1000, dtype=np.uint64), np.arange(1000, dtype=np.uint64),
        np.ones(1000, dtype=np.int64))

class Source:
    def batches(self, block):
        yield cols

ShardedSketch(SketchSpec(engine="numpy", l=64), 2, processes=True).process(Source())
"""

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def quiet(fn, *args, **kwargs):
    """Call *fn* with its stdout captured; ``(result, text)``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = fn(*args, **kwargs)
    return result, buffer.getvalue()


def printed_metrics(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith("# metric "):
            name, rest = line[len("# metric "):].split(" = ", 1)
            out[name] = rest.split()[1]
    return out


def main() -> int:
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(declared[0] == wl.END_TO_END, "end_to_end metrics match BENCHMARK.json")
    expect(declared[1] == wl.PER_LAYER, "per_layer metrics match BENCHMARK.json")
    expect([w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS),
           "workloads match BENCHMARK.json")

    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            record, text = quiet(wl.execute, workload, 3, 1.0, bool(trace), wl.TINY)
            tag = f"{workload} trace={trace}"
            expect(record["correct"] and record["failed"] == 0, f"{tag}: checks pass")
            printed = printed_metrics(text)
            expected = dict(declared[trace])
            if trace == 0:
                expected.update(wl.UNGATED)
                if workload == "serve":
                    expected.update(wl.SERVE_UNGATED)
            missing = [n for n, u in expected.items() if printed.get(n) != u]
            expect(not missing, f"{tag}: every metric printed with its unit {missing}")
            expect("error_rate" in printed, f"{tag}: error_rate printed")

    record, _ = quiet(wl.execute, "ingest", 3, 1.0, False, wl.TINY, corrupt=True)
    failed = [c["check"] for c in record["checks"] if not c["ok"]]
    expect(record["error_rate"] > 0 and any("epoch_blob" in c for c in failed),
           "corrupted epoch blob fails the blob check")
    record, _ = quiet(wl.execute, "serve", 3, 1.0, False, wl.TINY, refuse=True)
    expect(record["failed"] == 1 and record["error_rate"] > 0,
           "serve: a refused query counts in error_rate")

    start = time.monotonic()
    returncode, _ = run.supervise([sys.executable, "-c", HANG], deadline_s=20.0)
    elapsed = time.monotonic() - start
    expect(returncode is None and elapsed < 40, "watchdog ends a hung sharded run")

    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    os.chdir(wl.ROOT)
    sys.exit(main())
