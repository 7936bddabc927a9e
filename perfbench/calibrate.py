"""Find the ``full_replay`` generator-seed pool.

    python3 perfbench/calibrate.py

``ames1993`` loads differ by up to 10x between generator seeds, because
a few large jobs dominate a trace.  The pool is chosen in two stages,
with the bands set next to ``workloads.FULL_POOL``:

1. Plan every candidate seed at the benchmark's scale (deterministic,
   fast) and keep those whose planned operation count and written bytes
   both lie within ``POOL_LOAD_BAND`` of the candidates' medians.
2. Run each kept seed's full pipeline in a fresh process, ``POOL_REPS``
   times, the seeds interleaved so that a slow period of the host hits
   them all alike.  Keep the seeds whose median run time and peak RSS lie
   within ``POOL_TIME_BAND`` and ``POOL_RSS_BAND`` of the medians over
   the kept seeds: bytes read, preexisting files and the block-level
   cache behaviour move both in ways the plan does not show.

Paste the printed tuple into ``workloads.FULL_POOL``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from workloads import (  # noqa: E402
    POOL_CANDIDATES,
    POOL_LOAD_BAND,
    POOL_REPS,
    POOL_RSS_BAND,
    POOL_TIME_BAND,
    SIZES,
)


def plan_load(scale: float, seed: int) -> tuple[int, int]:
    """(planned operations, planned bytes written) of one seed."""
    from repro.workload import WorkloadGenerator, get_scenario

    _, uses = WorkloadGenerator(get_scenario("ames1993", scale), seed=seed).plan()
    flat = [u for per_job in uses.values() for u in per_job]
    return sum(u.n_ops for u in flat), sum(u.bytes_written for u in flat)


_RUN_ONE = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from repro.workload import WorkloadGenerator, get_scenario
gen = WorkloadGenerator(get_scenario("ames1993", float(sys.argv[2])), seed=int(sys.argv[3]))
t0 = time.perf_counter()
gen.run("full")
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def full_run(scale: float, seed: int) -> tuple[float, float]:
    """(seconds, peak RSS MB) of one full-pipeline run in a fresh process."""
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", _RUN_ONE, str(HERE.parent / "src"), str(scale),
         str(seed)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return float(out[0]), float(out[1])


def main() -> int:
    scale = SIZES["default"]["full_replay"]
    load = np.array([plan_load(scale, s) for s in range(POOL_CANDIDATES)], float)
    med = np.median(load, axis=0)
    ok = np.flatnonzero(np.all(np.abs(load / med - 1) <= POOL_LOAD_BAND, axis=1))
    print(f"scale {scale}: median {med[0]:.0f} ops, {med[1] / 2**20:.0f} MiB written; "
          f"{len(ok)} seeds in the band")
    runs: dict[int, list] = {int(s): [] for s in ok}
    for _ in range(POOL_REPS):
        for seed in runs:
            runs[seed].append(full_run(scale, seed))
    secs = {s: float(np.median([r[0] for r in v])) for s, v in runs.items()}
    rss = {s: float(np.median([r[1] for r in v])) for s, v in runs.items()}
    mid_s, mid_rss = np.median(list(secs.values())), np.median(list(rss.values()))
    pool = []
    for seed in runs:
        ops, written = load[seed]
        keep = (abs(secs[seed] / mid_s - 1) <= POOL_TIME_BAND
                and abs(rss[seed] / mid_rss - 1) <= POOL_RSS_BAND)
        pool += [seed] if keep else []
        print(f"  seed {seed}: {ops:.0f} ops, {written / 2**20:.1f} MiB written, "
              f"full run {secs[seed]:.2f} s, {rss[seed]:.0f} MB"
              f"{'' if keep else '  (dropped)'}")
    print("FULL_POOL =", tuple(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main())
