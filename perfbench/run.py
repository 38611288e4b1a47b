"""Benchmark of lefkit's certified verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lefkit checkout; lefkit is imported from its `src`.
One operation runs at a time.  With --trace 0 every operation is its own
`python3 -m lefkit ...` (or libop.py) process; whole rounds of the
workload's operations repeat until S seconds of operation time are
measured, and the end-to-end metrics are medians over rounds.  With
--trace 1 one untraced and one traced round run in-process and the
per-layer metrics are printed.  Every output is checked against checks.py,
outside the timed regions.  The inputs are fixed mathematical instances: the
seed is accepted for the calling convention and changes nothing.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import selftest  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

OP_TIMEOUT_S = 150


class Tally:
    """Operations attempted and failed, and whether every checked output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()

    def record(self, op, rc, stdout, stderr):
        self.attempted += 1
        try:
            want = op.expected_rc()
            if rc != want:
                self.failed += 1
                self._report(op, f"exit {rc}, expected {want}: {stderr.strip()[-200:]}")
                return
            op.check(stdout)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.correct = False
            self._report(op, f"wrong output: {exc}")

    def _report(self, op, message):
        if (op.label, message) not in self.reported:
            self.reported.add((op.label, message))
            print(f"[{op.label}] {message}", file=sys.stderr)


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _child_env(src):
    env = {k: v for k, v in os.environ.items() if k != "LEFKIT_THREADS"}
    env["PYTHONPATH"] = src
    return env


def run_child(argv, env, root):
    """Run one process to its end; return (wall s, cpu s, exit code, stdout, stderr)."""
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        rc, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        rc, out, err = None, "", f"timed out after {OP_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    return wall, cpu, rc, out, err


def op_argv(op):
    if op.lib:
        return [sys.executable, os.path.join(HERE, "libop.py"), *op.argv]
    return [sys.executable, "-m", "lefkit", *op.argv]


def untraced(ops, tally, seconds, env, root, set_up) -> dict:
    """Whole rounds until `seconds` of operation time; a set-up after every operation.

    Spreading the set-ups over the run keeps a short slow spell of the
    machine from moving the median set-up time.
    """
    walls, cpus, setups = [], [], []
    while not walls or sum(walls) < seconds:
        wall = cpu = 0.0
        for op in ops:
            w, c, rc, out, err = run_child(op_argv(op), env, root)
            wall += w
            cpu += c
            tally.record(op, rc, out, err)
            setups.append(set_up())
        walls.append(wall)
        cpus.append(cpu)
    print(f"rounds: {len(walls)}, wall s per round: {[round(w, 3) for w in walls]}", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def run_in_process(op, tracer=None):
    """One operation in this process; return (wall s, exit code, stdout, stderr)."""
    import libop
    from lefkit import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # a crash counts as a failed operation, as the exit code 1 of a child would
        try:
            if op.lib:
                print(json.dumps(libop.run(op.argv)))
                rc = 0
            else:
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    if tracer is not None and not op.lib:
        tracer.out_bytes += len(out.getvalue().encode()) + sum(os.path.getsize(p) for p in op.written_files() if os.path.exists(p))
    return wall, rc, out.getvalue(), err.getvalue()


def traced(ops, tally, src, spans_path) -> dict:
    import tracer as tracing

    sys.path.insert(0, src)
    import lefkit

    if not os.path.abspath(lefkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"lefkit imported from {lefkit.__file__}, not from {src}")
    untraced_wall = 0.0
    for op in ops:
        wall, rc, out, err = run_in_process(op)
        untraced_wall += wall
        tally.record(op, rc, out, err)
    tr = tracing.Tracer()
    tr.install()
    origin = time.perf_counter()
    traced_wall = 0.0
    for index, op in enumerate(ops):
        tr.op = index
        wall, rc, out, err = run_in_process(op, tr)
        traced_wall += wall
        tally.record(op, rc, out, err)
    metrics = tr.metrics(traced_wall, untraced_wall)
    tr.dump(spans_path, ops, origin)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lefkit", "__init__.py")):
        print(f"error: no lefkit package under {src}", file=sys.stderr)
        return 2
    failures = selftest.run_selftests()
    if failures:
        print(f"error: self-tests of the checks failed: {failures}", file=sys.stderr)
        return 1

    out_dir = os.path.join(HERE, "out")
    run_dir = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    env = _child_env(src)
    tally = Tally()
    set_up_cmd = [sys.executable, os.path.join(HERE, "setup_inputs.py"), args.workload, run_dir]

    def set_up():
        wall, _, rc, _, err = run_child(set_up_cmd, env, root)
        if rc != 0:
            raise SystemExit(f"error: set-up failed: {err.strip()[-400:]}")
        return wall

    try:
        set_up()
        ops = workloads.WORKLOADS[args.workload](run_dir)
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
            metrics = traced(ops, tally, src, spans)
        else:
            metrics = untraced(ops, tally, args.seconds, env, root, set_up)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
