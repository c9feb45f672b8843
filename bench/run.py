"""Run the torslab benchmark from the root of a source checkout.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run is a closed loop with one client: each sample is a fresh, single
threaded interpreter (child.py) that runs one torslab command on the
workload's seeded algebra, and the next starts when it has ended.  Samples
run until --seconds have passed, at least one.  Every report is checked
against the workload's expected summary and against the first report of the
run, byte for byte.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, medians over the run's samples:
wall_s (command to rendered report), setup_s (import torslab, read and
parse the algebra) and peak_rss_mb.  The two times are host-normalised:
each sample's seconds are rescaled by the host speed that a probe in the
same child saw (reference.py), because other tenants of the host slow it
down for minutes at a time.  The raw medians are printed beside them.
--trace 1 alternates untraced and traced samples and reports the per-layer
medians of the traced ones (tracer.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import UNITS
from workloads import BY_NAME, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170  # every run, set-up included, ends well within 180 s
MIN_SETUPS = 15  # set-up samples per run; set-up-only children fill up to this
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def normalised_wall(sample):
    """The command's seconds on a host where a probe tick takes TICK_S."""
    return sample["net_s"] * sample["speed"]


def normalised_setup(sample):
    return sample["setup_s"] * sample["setup_speed"]


def _child(args, timeout):
    """Run child.py with args; its JSON result, or {"error": ...} when it died."""
    cmd = [sys.executable, "-I", str(BENCH / "child.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1)
        )
    except subprocess.TimeoutExpired:
        return {"error": "Timeout"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": "child exit %d: %s" % (proc.returncode, tail[0])}
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """Samples of one workload for about `seconds`; returns the result dict."""
    started = time.monotonic()
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = work / (workload.algebra + ".alg")
        text, argv = workload.inputs(seed, str(path))
        path.write_text(text)

        def spawn(argv, traced=False):
            left = HARD_LIMIT_S - (time.monotonic() - started)
            return _child([str(SRC), str(path), str(int(traced))] + argv, left)

        def setup_only():
            got = spawn([])
            if "setup_s" not in got:
                raise BenchError("set-up failed: %s" % got["error"])
            return got

        setup_only()  # writes the bytecode caches of a fresh checkout; not measured
        plain, traced = [], []
        begin = time.monotonic()
        while not plain or time.monotonic() - begin < seconds:
            plain.append(spawn(argv))
            if trace:
                traced.append(spawn(argv, True))
            if any(s.get("error") == "Timeout" for s in plain + traced):
                break
        setups = [s for s in plain + traced if "setup_speed" in s]
        while len(setups) < MIN_SETUPS and time.monotonic() - started < HARD_LIMIT_S - 10:
            setups.append(setup_only())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    samples = plain + traced
    first_report = next((s["sha256"] for s in samples if s.get("error") is None), None)
    failed = [
        s for s in samples
        if s.get("error") is not None
        or s["summary"] != workload.expected
        or s["sha256"] != first_report
    ]
    result = {"correct": not failed, "attempted": len(samples), "failed": len(failed)}
    notes = ["%s failed_ratio %r 1" % (workload.name, len(failed) / len(samples))]
    for s in failed:
        notes.append(
            "%s failed sample: error=%s exit=%s summary=%s"
            % (workload.name, s.get("error"), s.get("exit"), json.dumps(s.get("summary"), sort_keys=True))
        )
    plain_ok = [s for s in plain if "wall_s" in s]
    if trace:
        traced_ok = [s for s in traced if "layers" in s]
        metrics = {
            name: statistics.median(s["layers"][name] for s in traced_ok)
            for name in traced_ok[0]["layers"]
        } if traced_ok else {}
        if traced_ok and plain_ok:
            metrics["trace.overhead"] = statistics.median(
                s["net_s"] for s in traced_ok
            ) / statistics.median(s["net_s"] for s in plain_ok)
        units = UNITS
        notes.append("%s traced samples %d" % (workload.name, len(traced_ok)))
    else:
        metrics = {"setup_s": statistics.median(normalised_setup(s) for s in setups)}
        notes.append("%s set-up samples %d, raw median %r s" % (
            workload.name, len(setups), statistics.median(s["setup_s"] for s in setups)))
        if plain_ok:
            metrics["wall_s"] = statistics.median(normalised_wall(s) for s in plain_ok)
            metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in plain_ok)
            notes.append("%s samples %d, raw wall median %r s, host speed median %r" % (
                workload.name, len(plain_ok), statistics.median(s["wall_s"] for s in plain_ok),
                statistics.median(s["speed"] for s in plain_ok)))
        units = END_TO_END
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())
    }
    for name, m in sorted(metrics.items()):
        notes.append("%s %s %r %s" % (workload.name, name, m, units[name]))
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + tuple(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torslab" / "__init__.py").is_file():
        print("bench: no torslab source at %s" % SRC, file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        result, notes = run_workload(workload, args.seed, args.seconds, args.trace == 1)
        for line in notes:
            print(line, flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else workload.name + "."
        for name, metric in result["metrics"].items():
            total["metrics"][prefix + name] = metric
    print(json.dumps(total, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
