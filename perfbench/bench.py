"""Child processes of the benchmark: one set-up, or the timed rounds.

    python3 perfbench/bench.py setup --workload W --seed N --size S --data DIR
    python3 perfbench/bench.py work  --workload W --seed N --size S --data DIR \
        --seconds T --trace 0|1

``setup`` imports the library, makes the workload's inputs under DIR
(and, for ``drift_ingest``, starts the daemon), prints ``ready`` once it
could make its first timed call, then tears down and exits.  ``run.py``
times it from spawn to ``ready``.

``work`` runs whole rounds of the workload's operations until T seconds
have passed (at least three rounds; the first is a warm-up and is not
reported), checks the outputs, and prints one JSON line; ``wall_s`` and
``cpu_s`` are the best round's.  With ``--trace 1`` even rounds are
traced (spans around every call into a layer, see ``tracer.py``), odd
rounds are not, and the difference of their best walls is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import NullTracer, Tracer, proc_status_kb  # noqa: E402
from workloads import WORKLOADS, OpFailed, stop_daemon  # noqa: E402

MIN_ROUNDS = 3


def _cpu_s() -> float:
    """CPU of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cmd_setup(wl) -> int:
    wl.make_input()
    daemon = wl.start_daemon()
    print("ready", flush=True)
    if daemon is not None:
        stop_daemon(*daemon)
    return 0


def cmd_work(wl, seconds: float, trace: bool) -> int:
    import numpy

    tracer = Tracer()
    null = NullTracer()
    wl.prepare()
    rounds: list[dict] = []
    t_end = time.perf_counter() + seconds
    try:
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < t_end:
            traced = trace and len(rounds) % 2 == 0
            tr = tracer if traced else null
            wl.before_round(len(rounds))
            gc.collect()
            first_span = len(tracer.spans)
            c0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                with tr.span("round"):
                    wl.round(tr)
                ok = True
            except OpFailed:
                ok = False
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - c0 + wl.daemon_cpu_s()
            wl.after_round(traced)
            if traced and ok:
                wl.probes(tr)
            rounds.append({"traced": traced, "ok": ok, "wall": wall, "cpu": cpu,
                           "spans": (first_span, len(tracer.spans))})
        peaks = {
            "self": proc_status_kb(),
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "daemon": wl.daemon_peak_kb(),
        }
        peak_kb = max(peaks.values())
    finally:
        wl.close()

    bad = list(wl.errors)
    if all(r["ok"] for r in rounds):
        bad += wl.check()
    timed = [r for r in rounds[1:] if not r["traced"]]
    result = {
        "correct": not bad,
        "problems": bad,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "round_walls": [round(r["wall"], 3) for r in rounds],
        "round_cpus": [round(r["cpu"], 3) for r in rounds],
        "peak_kb": peaks,
        "numpy": numpy.__version__,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": min(r["wall"] for r in timed),
            "cpu_s": min(r["cpu"] for r in timed),
            "peak_rss_mb": peak_kb / 1024,
        }
    elif not bad:
        traced = [r for r in rounds if r["traced"]]
        steady = traced[1:] or traced
        per_round = [tracer.self_times(*r["spans"]) for r in steady]
        names = set().union(*per_round)
        times = {n: statistics.median(d.get(n, 0.0) for d in per_round) for n in names}
        hwm = tracer.hwm_growth_mb(traced[0]["spans"][1])
        metrics = wl.layer_metrics(times, hwm)
        metrics["tracing_overhead_s"] = (
            min(r["wall"] for r in steady) - min(r["wall"] for r in timed)
        )
        result["metrics"] = metrics
        result["input"] = wl.input_info()
        spans_out = ROOT / ".perfbench" / "spans"
        spans_out.mkdir(parents=True, exist_ok=True)
        (spans_out / f"{wl.name}-seed{wl.seed}.json").write_text(
            json.dumps(tracer.spans)
        )
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("command", choices=["setup", "work"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="default")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--generator-seed", type=int, default=None)
    args = p.parse_args(argv)
    args.data.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](
        ROOT, args.size, args.seed, args.data, args.generator_seed
    )
    if args.command == "setup":
        return cmd_setup(wl)
    return cmd_work(wl, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
