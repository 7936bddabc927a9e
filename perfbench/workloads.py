"""The benchmark's three workloads, each run against the public API.

- ``study``: every experiment of ``repro reproduce`` plus ``validate``
  and ``render_all`` (``repro figures``) on a stored ``ames1993`` trace.
- ``full_replay``: ``generate --pipeline full`` to a chunked store.
- ``drift_ingest``: a stored drift-engine trace pushed chunk by chunk to
  a local ``repro serve`` daemon as several interleaved runs, then
  ``/report`` and ``/figdata`` for every run.

A workload makes its inputs in :meth:`make_input` (the set-up process),
runs whole rounds of the same operations in :meth:`round` (the timed
process), makes traced-only probe calls in :meth:`probes`, and checks
its outputs against independent computations in :meth:`check`.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracer import proc_cpu_s, proc_status_kb

#: Figure 9 buffer counts, as ``repro reproduce`` sweeps them
FIG9_COUNTS = (125, 500, 2000)

#: The study's generator seed, and the one kept for confirming claims
#: (``run.py --generator-seed 11``).  ``ames1993`` loads differ by up to
#: 10x between generator seeds, so the study's ``--seed`` permutes the
#: file ids of this one trace instead (see :func:`relabel_files`).
STUDY_SEED = 7
#: the self-check's study seed: its tiny trace holds the paper's marginals
TINY_STUDY_SEED = 4

#: Generator seeds of equal load, as ``calibrate.py`` chooses them: of
#: seeds ``0 .. POOL_CANDIDATES - 1``, those whose planned operations and
#: written bytes lie within ``POOL_LOAD_BAND`` of the candidates' medians,
#: then of those, the ones whose full-run time lies within
#: ``POOL_TIME_BAND`` and whose peak RSS lies within ``POOL_RSS_BAND`` of
#: the medians over ``POOL_REPS`` interleaved runs.  ``full_replay --seed
#: n`` runs ``FULL_POOL[n % len]``, so a seed shifts the trace's content,
#: not its load.
FULL_POOL: tuple[int, ...] = (562, 797, 2464, 2859, 3988, 4308)
POOL_CANDIDATES = 6000
POOL_LOAD_BAND = 0.05
POOL_TIME_BAND = 0.06
POOL_RSS_BAND = 0.03
POOL_REPS = 5

#: input sizes; ``tiny`` is the self-check's
SIZES = {
    "default": {"study": 0.03, "full_replay": 0.03, "drift_ingest": 0.015},
    "tiny": {"study": 0.005, "full_replay": 0.004, "drift_ingest": 0.006},
}

#: drift_ingest: runs pushed per round, and events per pushed chunk
DRIFT_RUNS = 6
DRIFT_CHUNK = 4096


def generator_seed(workload: str, size: str, seed: int) -> int:
    """The workload generator's seed for benchmark seed ``seed``."""
    if workload == "study":
        return STUDY_SEED if size == "default" else TINY_STUDY_SEED
    if workload == "full_replay" and size == "default":
        return FULL_POOL[seed % len(FULL_POOL)]
    return seed


class OpFailed(Exception):
    """An operation of the round failed; the round's dependants skip."""


class Workload:
    name = ""

    def __init__(
        self, root: Path, size: str, seed: int, data_dir: Path,
        gen_seed: int | None = None,
    ) -> None:
        self.root = root
        self.scale = SIZES[size][self.name]
        self.seed = seed
        self.gen_seed = (
            generator_seed(self.name, size, seed) if gen_seed is None else gen_seed
        )
        self.store_path = data_dir / "input.ctrace"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, tr, name: str, fn):
        """Run one counted operation inside a span named after its layer."""
        self.attempted += 1
        try:
            with tr.span(name):
                return fn()
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc

    # hooks with no work by default
    def make_input(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def before_round(self, i: int) -> None:
        self.out = None  # release the last round's outputs before the next

    def after_round(self, traced: bool) -> None:
        pass

    def probes(self, tr) -> None:
        pass

    def start_daemon(self):
        return None

    def daemon_cpu_s(self) -> float:
        return 0.0

    def daemon_peak_kb(self) -> int:
        return 0

    def close(self) -> None:
        pass

    def input_info(self) -> dict:
        return {"scale": self.scale, "generator_seed": self.gen_seed}


# -- study ---------------------------------------------------------------------


def relabel_files(frame, seed: int):
    """The trace with its file ids permuted among themselves by ``seed``.

    Every §4 statistic and cache hit rate is invariant under the
    relabeling (blocks map to I/O nodes by block index; ``Study.check``
    compares the report and the Fig 8, Fig 9 and combined results with
    those of the unrelabeled trace), so each seed feeds the program
    different bytes for the same work.
    """
    from repro.trace.frame import FileTable, TraceFrame
    from repro.trace.records import NO_VALUE

    files = frame.files.data.copy()
    ids = np.sort(files["file"])
    new_ids = ids[np.random.default_rng(seed).permutation(len(ids))]
    events = frame.events.copy()
    has_file = events["file"] != NO_VALUE
    events["file"][has_file] = new_ids[np.searchsorted(ids, events["file"][has_file])]
    files["file"] = new_ids[np.searchsorted(ids, files["file"])]
    files.sort(order="file")
    return TraceFrame(
        events, jobs=frame.jobs, files=FileTable(files), header=frame.header
    )


class Study(Workload):
    """``repro reproduce`` + ``validate`` + ``figures`` on a stored trace."""

    name = "study"

    def make_input(self) -> None:
        from repro.trace.store import write_store
        from repro.workload import WorkloadGenerator, get_scenario

        frame = WorkloadGenerator(
            get_scenario("ames1993", self.scale), seed=self.gen_seed
        ).run("direct").frame
        write_store(relabel_files(frame, self.seed), self.store_path)

    def round(self, tr) -> None:
        from repro.caching import (
            simulate_combined,
            simulate_compute_node_caches,
            sweep_lines,
        )
        from repro.core import characterize
        from repro.core.figures import render_all
        from repro.strided import coalesce_trace
        from repro.trace.store import open_source
        from repro.workload import validate_workload

        op = self.op
        self.out = out = {}
        frame = op(tr, "trace.store_open", lambda: open_source(self.store_path).frame())
        out["frame"] = frame
        out["report"] = op(tr, "core.characterize", lambda: characterize(frame))
        out["fig8"] = op(tr, "caching.fig8",
                         lambda: simulate_compute_node_caches(frame, buffers=1))
        out["fig9"] = op(tr, "caching.fig9",
                         lambda: sweep_lines(frame, FIG9_COUNTS, ["lru", "fifo"]))
        out["combined"] = op(tr, "caching.combined", lambda: simulate_combined(frame))
        out["strided"] = op(tr, "strided.coalesce", lambda: coalesce_trace(frame))
        out["validation"] = op(tr, "workload.validate",
                               lambda: validate_workload(frame))
        op(tr, "core.figures", lambda: render_all(frame))

    def probes(self, tr) -> None:
        from repro.caching import sweep_lines

        frame = self.out["frame"]
        for policy in ("lru", "fifo"):
            with tr.span(f"caching.fig9_{policy}_line"):
                sweep_lines(frame, FIG9_COUNTS, [policy])

    def check(self) -> list[str]:
        from repro.caching import (
            SweepLine,
            simulate_combined,
            simulate_compute_node_caches,
            sweep_lines,
        )
        from repro.core import characterize
        from repro.core.legacy import characterize_legacy
        from repro.trace.records import EventKind
        from repro.workload import WorkloadGenerator, get_scenario

        out = self.out
        frame = out["frame"]
        bad = []
        text = out["report"].render()
        if text != characterize_legacy(frame).render():
            bad.append("fused report differs from the legacy oracle")
        # the seed's relabeling must leave every result of the round unchanged
        canonical = WorkloadGenerator(
            get_scenario("ames1993", self.scale), seed=self.gen_seed
        ).run("direct").frame
        if text != characterize(canonical).render():
            bad.append("report changes when file ids are relabeled")
        fig8 = simulate_compute_node_caches(canonical, buffers=1)
        if not (
            np.array_equal(fig8.job_ids, out["fig8"].job_ids)
            and np.array_equal(fig8.job_hit_rates, out["fig8"].job_hit_rates)
            and fig8.total_hits == out["fig8"].total_hits
            and fig8.total_requests == out["fig8"].total_requests
        ):
            bad.append("fig8 hit rates change when file ids are relabeled")
        fig9 = sweep_lines(canonical, FIG9_COUNTS, ["lru", "fifo"])
        for mine, ref in zip(out["fig9"], fig9):
            if not np.array_equal(mine.hit_rates, ref.hit_rates):
                bad.append(f"fig9 {ref.policy} changes when file ids are relabeled")
        if simulate_combined(canonical) != out["combined"]:
            bad.append("combined result changes when file ids are relabeled")
        lru, fifo = out["fig9"]
        oracle = sweep_lines(
            frame, FIG9_COUNTS, [SweepLine("lru", 10, "replay-python")], workers=1
        )[0]
        if not np.array_equal(lru.hit_rates, oracle.hit_rates):
            bad.append("fig9 LRU line differs from the replay-python oracle")
        opt = sweep_lines(frame, FIG9_COUNTS, ["opt"], workers=1)[0]
        for curve in (lru, fifo):
            if np.any(curve.hit_rates > opt.hit_rates):
                bad.append(f"fig9 {curve.policy} beats OPT")
        if np.any(np.diff(lru.hit_rates) < 0):
            bad.append("fig9 LRU hit rate falls as buffers grow")
        kinds = frame.events["kind"]
        transfers = int(np.count_nonzero(
            (kinds == int(EventKind.READ)) | (kinds == int(EventKind.WRITE))
        ))
        if out["strided"].simple_requests != transfers:
            bad.append("strided simple_requests != READ+WRITE count")
        val = out["validation"]
        if val.profile != "marginals" or val.passed < len(val.checks) - 3:
            bad.append(
                f"validation passed {val.passed} of {len(val.checks)} "
                f"({val.profile})"
            )
        return bad

    def layer_metrics(self, times: dict, hwm: dict) -> dict:
        frame = self.out["frame"]
        m = {name + "_s": times.get(name, 0.0) for name in (
            "trace.store_open", "core.characterize", "caching.fig8",
            "caching.fig9", "caching.fig9_lru_line", "caching.fig9_fifo_line",
            "caching.combined", "strided.coalesce", "workload.validate",
            "core.figures",
        )}
        m["core.characterize_events_per_s"] = (
            frame.n_events / m["core.characterize_s"]
        )
        m["study.events"] = frame.n_events
        return m

    def input_info(self) -> dict:
        ev = self.out["frame"].events["kind"]
        return {**super().input_info(), **_mix(ev)}


# -- full_replay ---------------------------------------------------------------


class FullReplay(Workload):
    """``generate --pipeline full`` to a chunked store, unsharded."""

    name = "full_replay"

    def _generator(self):
        from repro.workload import WorkloadGenerator, get_scenario

        return WorkloadGenerator(
            get_scenario("ames1993", self.scale), seed=self.gen_seed
        )

    def make_input(self) -> None:
        # the input is the scenario and seed; set-up resolves them
        self._generator()

    def round(self, tr) -> None:
        from repro.trace.store import write_store

        self.out = out = {}
        out["workload"] = w = self.op(
            tr, "workload.full_run", lambda: self._generator().run("full")
        )
        self.op(tr, "trace.store_write",
                lambda: write_store(w.frame, self.store_path))

    def probes(self, tr) -> None:
        from repro.trace.postprocess import postprocess

        with tr.span("workload.plan"):
            self._generator().plan()
        with tr.span("trace.postprocess"):
            postprocess(self.out["workload"].raw)

    def check(self) -> list[str]:
        from repro.core import characterize
        from repro.trace.store import open_source

        w = self.out["workload"]
        bad = []
        d = characterize(self._generator().run("direct").frame)
        f = characterize(w.frame)
        for what, a, b in (
            ("files", d.files.n_files, f.files.n_files),
            ("write-only files", d.files.write_only, f.files.write_only),
            ("read-only files", d.files.read_only, f.files.read_only),
            ("intervals", d.intervals, f.intervals),
            ("request sizes", d.request_sizes, f.request_sizes),
            ("reads", d.reads.n_requests, f.reads.n_requests),
            ("bytes read", d.reads.total_bytes, f.reads.total_bytes),
            ("files per mode", d.modes.files_per_mode, f.modes.files_per_mode),
        ):
            if a != b:
                bad.append(f"full vs direct pipeline: {what} {b} != {a}")
        back = open_source(self.store_path).frame()
        if not (
            np.array_equal(back.events, w.frame.events)
            and np.array_equal(back.jobs.data, w.frame.jobs.data)
            and np.array_equal(back.files.data, w.frame.files.data)
        ):
            bad.append("store does not read back equal to the frame")
        return bad

    def layer_metrics(self, times: dict, hwm: dict) -> dict:
        w = self.out["workload"]
        stats = w.fs.cache_stats()
        n = w.frame.n_events
        m = {name + "_s": times.get(name, 0.0) for name in (
            "workload.plan", "workload.full_run", "trace.postprocess",
            "trace.store_write",
        )}
        m["workload.full_events_per_s"] = n / m["workload.full_run_s"]
        m["trace.store_mb"] = self.store_path.stat().st_size / 2**20
        m["workload.full_run_rss_growth_mb"] = hwm.get("workload.full_run", 0.0)
        m["cfs.cache_hits"] = stats.hits
        m["cfs.cache_misses"] = stats.misses
        m["cfs.disk_bytes_used"] = w.fs.disk_usage()[0]
        return m

    def input_info(self) -> dict:
        ev = self.out["workload"].frame.events["kind"]
        return {**super().input_info(), **_mix(ev)}


# -- drift_ingest --------------------------------------------------------------


def start_daemon(root: Path):
    """Start ``repro serve`` on an ephemeral port; (process, client)."""
    from repro.service import ServiceClient

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("trace service at "):
        stop_daemon(proc, None)
        raise RuntimeError(f"daemon did not start: {line!r}")
    client = ServiceClient(line.split()[-1])
    client.wait_healthy()
    return proc, client


def stop_daemon(proc, client) -> None:
    try:
        if client is not None:
            client.shutdown()
        proc.wait(timeout=30)
    except Exception:  # noqa: BLE001 - a daemon that will not drain is killed
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _counter(metrics_text: str, name: str) -> float:
    hit = re.search(rf"^\S*{name}\S* (\S+)$", metrics_text, re.M)
    return float(hit.group(1)) if hit else 0.0


class DriftIngest(Workload):
    """Interleaved chunk pushes of a stored drift trace to a live daemon."""

    name = "drift_ingest"

    def _scenario(self):
        from repro.workload import drift_scenario

        return drift_scenario(self.scale)

    def make_input(self) -> None:
        from repro.trace.store import write_store
        from repro.workload import WorkloadGenerator

        frame = WorkloadGenerator(self._scenario(), seed=self.gen_seed).run(
            "direct"
        ).frame
        write_store(frame, self.store_path, chunk_size=DRIFT_CHUNK)

    def start_daemon(self):
        return start_daemon(self.root)

    def prepare(self) -> None:
        self.served: set[str] = set()
        self.daemon_peaks_kb: list[int] = []
        self.ingest: list[tuple[float, float]] = []
        self.events_per_round = 0
        self.daemon = None

    def before_round(self, i: int) -> None:
        self.round_no = i
        self.daemon = self.start_daemon()
        self._cpu0 = proc_cpu_s(self.daemon[0].pid)

    def round(self, tr) -> None:
        from repro.trace.store import open_source

        client = self.daemon[1]
        op = self.op
        src = open_source(self.store_path)
        runs = [f"r{self.round_no}-{k}" for k in range(DRIFT_RUNS)]
        events = 0
        for run in runs:
            op(tr, "service.register", lambda: client.register(src, run))
            for offset in (0, 1):
                for seq in range(offset, src.n_chunks, 2):
                    def push(seq=seq):
                        with tr.span("trace.store_chunk_read"):
                            chunk = src.chunk(seq)
                        return client.push_chunk(run, seq, chunk)

                    op(tr, "service.push", push)
            events += src.n_events
        self.events_per_round = events
        for run in runs:
            self.served.add(op(tr, "service.report", lambda: client.report_text(run)))
            op(tr, "service.figdata", lambda: client.figdata(run))
        src.close()

    def daemon_cpu_s(self) -> float:
        return proc_cpu_s(self.daemon[0].pid) - self._cpu0

    def after_round(self, traced: bool) -> None:
        proc, client = self.daemon
        self.daemon_peaks_kb.append(proc_status_kb(proc.pid))
        if traced:
            text = client.metrics_text()
            self.ingest.append((
                _counter(text, "service_ingest_chunks_total"),
                _counter(text, "service_ingest_bytes_total"),
            ))
        stop_daemon(proc, client)
        self.daemon = None

    def close(self) -> None:
        if self.daemon is not None:
            stop_daemon(*self.daemon)
            self.daemon = None

    def daemon_peak_kb(self) -> int:
        return max(self.daemon_peaks_kb, default=0)

    def check(self) -> list[str]:
        import time

        from repro.core import characterize
        from repro.core.legacy import characterize_legacy
        from repro.trace.store import open_source
        from repro.workload import DriftConfig, population_curve

        bad = []
        t0 = time.perf_counter()
        batch = characterize(open_source(self.store_path)).render()
        self.batch_fold_s = time.perf_counter() - t0
        if self.served != {batch + "\n"}:
            bad.append(
                f"{len(self.served)} distinct served reports, not the batch one"
            )
        frame = open_source(self.store_path).frame()
        self.frame = frame
        if characterize_legacy(frame).render() != batch:
            bad.append("batch report differs from the legacy oracle")
        cfg = DriftConfig.from_options(self._scenario().engine_options)
        target = (
            cfg.tenants * cfg.files_per_tenant * cfg.mix.steady_state_live_fraction
        )
        _, pop = population_curve(frame)
        tail = float(pop[len(pop) // 2:].mean())
        if abs(tail - target) > 0.2 * target:
            bad.append(f"tail live files {tail:.1f}, target {target:.1f}")
        return bad

    def layer_metrics(self, times: dict, hwm: dict) -> dict:
        push_s = times.get("service.register", 0.0) + times.get("service.push", 0.0)
        chunk_read_s = times.get("trace.store_chunk_read", 0.0)
        chunks, nbytes = np.median(np.array(self.ingest), axis=0)
        return {
            "trace.store_chunk_read_s": chunk_read_s,
            "service.push_s": push_s,
            "service.ingest_events_per_s":
                self.events_per_round / (push_s + chunk_read_s),
            "service.report_s": times.get("service.report", 0.0),
            "service.figdata_s": times.get("service.figdata", 0.0),
            "service.daemon_peak_rss_mb": self.daemon_peak_kb() / 1024,
            "service.ingest_chunks": float(chunks),
            "service.ingest_bytes": float(nbytes),
            "core.batch_fold_s": self.batch_fold_s,
        }

    def input_info(self) -> dict:
        return {**super().input_info(), **_mix(self.frame.events["kind"])}


def _mix(kinds: np.ndarray) -> dict:
    from repro.trace.records import EventKind

    return {"events": int(len(kinds))} | {
        k.name.lower(): int(np.count_nonzero(kinds == int(k)))
        for k in (EventKind.READ, EventKind.WRITE, EventKind.OPEN,
                  EventKind.DELETE)
    }


WORKLOADS = {cls.name: cls for cls in (Study, FullReplay, DriftIngest)}

#: every per-layer metric and its unit; a workload reports 0 for a
#: metric of another workload's layer calls
PER_LAYER = {
    "trace.store_open_s": "s",
    "core.characterize_s": "s",
    "core.characterize_events_per_s": "1/s",
    "caching.fig8_s": "s",
    "caching.fig9_s": "s",
    "caching.fig9_lru_line_s": "s",
    "caching.fig9_fifo_line_s": "s",
    "caching.combined_s": "s",
    "strided.coalesce_s": "s",
    "workload.validate_s": "s",
    "core.figures_s": "s",
    "study.events": "count",
    "workload.plan_s": "s",
    "workload.full_run_s": "s",
    "workload.full_events_per_s": "1/s",
    "trace.postprocess_s": "s",
    "trace.store_write_s": "s",
    "trace.store_mb": "MB",
    "workload.full_run_rss_growth_mb": "MB",
    "cfs.cache_hits": "count",
    "cfs.cache_misses": "count",
    "cfs.disk_bytes_used": "B",
    "trace.store_chunk_read_s": "s",
    "service.push_s": "s",
    "service.ingest_events_per_s": "1/s",
    "service.report_s": "s",
    "service.figdata_s": "s",
    "service.daemon_peak_rss_mb": "MB",
    "service.ingest_chunks": "count",
    "service.ingest_bytes": "B",
    "core.batch_fold_s": "s",
    "tracing_overhead_s": "s",
}
