"""The repository's end-to-end benchmark: one command, one workload.

    python3 perfbench/run.py --workload {study,full_replay,drift_ingest} \
        --seed N --seconds T --trace {0,1} [--size {default,tiny}] \
        [--generator-seed G]

Run it from the root of a checkout.  It sets the workload up five
times, each in a fresh process (imports, input generation, daemon
start), and reports the median as ``setup_s``.  It then runs the timed
rounds in another fresh process (``bench.py work``), so the generator's
memory never counts toward the workload's ``peak_rss_mb``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The line before
it, prefixed ``host``, records the host: CPU count, affinity, Python
and numpy versions, the CPU steal seconds over the run, and per-round
figures for telling a noisy sample apart (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import PER_LAYER, SIZES, WORKLOADS  # noqa: E402

#: set-ups per run; ``setup_s`` is their median
N_SETUPS = 5
#: every child process must have ended this long after ``--seconds``:
#: the set-ups, the last round's overrun and the checks
ALLOWANCE_S = 145.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def steal_s() -> float:
    """Machine-wide CPU steal so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _child(args, command: str, data: Path) -> list[str]:
    return [
        sys.executable, str(HERE / "bench.py"), command,
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--data", str(data),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + ([] if args.generator_seed is None else
         ["--generator-seed", str(args.generator_seed)])


def _stop(proc: subprocess.Popen) -> None:
    """End a child's whole process group and wait for it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def _left(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise RuntimeError("out of time")
    return left


def run_setup(args, data: Path, deadline: float) -> float:
    """One set-up in a fresh process; seconds from spawn to ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        _child(args, "setup", data), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _left(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=_left(deadline))
    finally:
        _stop(proc)
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode})")
    return elapsed


def run_work(args, data: Path, deadline: float) -> dict:
    proc = subprocess.Popen(
        _child(args, "work", data), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=_left(deadline))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"timed run failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="default")
    p.add_argument("--generator-seed", type=int, default=None,
                   help="override the workload generator's seed (e.g. the "
                        "confirming seed 11 for study)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    data = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    steal0 = steal_s()
    deadline = time.perf_counter() + args.seconds + ALLOWANCE_S
    try:
        setups = [run_setup(args, data, deadline) for _ in range(N_SETUPS)]
        result = run_work(args, data, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)

    metrics, units = {}, {}
    if result["correct"] and args.trace:
        units = PER_LAYER
        metrics = {name: result["metrics"].get(name, 0.0) for name in PER_LAYER}
    elif result["correct"]:
        units = END_TO_END
        metrics = {**result["metrics"], "setup_s": statistics.median(setups)}
    host = {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "steal_s": round(steal_s() - steal0, 2),
        "round_walls_s": result["round_walls"],
        "round_cpus_s": result["round_cpus"],
        "peak_kb": result["peak_kb"],
        "setups_s": [round(s, 3) for s in setups],
    }
    if result.get("input"):
        host["input"] = result["input"]
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
