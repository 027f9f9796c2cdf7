"""One end-to-end benchmark of ``repro.api.open_session``.

Run from the repository root::

    python3 perfbench/run.py --workload paper-single --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload fleet24-durable --seed 1 --trace 1
    python3 perfbench/run.py --repeat 10 --seed 1      # steadiness report

``--trace 0`` times passes with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes of the same
inputs and prints the per-layer table. Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` or ``per_layer`` names of
``BENCHMARK.json``). ``--repeat N`` runs every workload N times with
consecutive seeds, interleaved, and prints each metric's median and
quartile spread next to its bound. Scratch files (the checkpoint
directory, Chrome traces) go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"

#: a timed run never stops with fewer rounds (one pass per instance)
#: than this; a traced run needs one.
MIN_ROUNDS = 3
#: timed recoveries per instance of a durable run.
RESUMES = 1


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, kind = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and (
            target == parts[1] or target.startswith(parts[1].rstrip("/") + "/")
        ):
            if len(parts[1]) > len(best):
                best, kind = parts[1], parts[2]
    return kind


def _provenance(workdir: Path) -> str:
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, checkpoint dir filesystem "
        f"{_fs_type(workdir)} (fsync counted, not issued: memory-backed "
        "semantics)"
    )


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every ``kind`` metric in BENCHMARK.json."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in document[kind]]


def _select(kind: str, values: dict[str, tuple[float, str]]) -> dict:
    """The values BENCHMARK.json declares, checked name by name."""
    chosen = {}
    for name, unit in _declared(kind):
        if name not in values or values[name][1] != unit:
            raise SystemExit(f"metric {name} [{unit}] is not produced")
        chosen[name] = values[name]
    return chosen


# -- timed run -----------------------------------------------------------------


def _rounds(seconds: float, one_round, at_least: int) -> int:
    """Run whole rounds — one pass per instance — for about ``seconds``,
    never fewer than ``at_least``; returns the rounds run."""
    started = perf_counter()
    done = 0
    while True:
        one_round(done)
        done += 1
        elapsed = perf_counter() - started
        if done >= at_least and elapsed * (done + 1) / done > seconds:
            return done


def _warm_up(runners) -> None:
    """One untimed pass, paying the process's lazy imports (each pass
    opens a fresh session, so no instance has caches of its own to warm)."""
    runners[0].check(runners[0].run_pass(), "warm-up pass")


def _sum_ledgers(results):
    total = results[0].ledgers
    for result in results[1:]:
        total = total + result.ledgers
    return total


def timed_run(spec, runners, seconds: float) -> tuple[dict, list[str]]:
    import numpy as np

    from perfbench.workloads import CONFIG

    _warm_up(runners)
    passes: list[list] = [[] for _ in runners]

    def one_round(index: int) -> None:
        for j, runner in enumerate(runners):
            result = runner.run_pass()
            runner.check(result, f"instance {j} pass {index + 1}")
            if result.error is None:
                passes[j].append(result)

    rounds = _rounds(seconds, one_round, MIN_ROUNDS)
    for runner in runners:
        runner.validate()
    mem_mb = runners[0].memory_mb()
    resumes = [
        timing
        for runner in runners
        if spec.durable
        for timing in runner.crash_and_resume(RESUMES)
    ]
    if not all(passes):
        return {}, ["every pass of some instance failed"]

    # per instance, the median pass; the instances' medians then add up,
    # so every instance weighs in by its own cost.
    wall_ref = sum(statistics.median(p.wall_ref_s for p in ps) for ps in passes)
    wall_raw = sum(statistics.median(p.wall_s for p in ps) for ps in passes)
    every = [p for ps in passes for p in ps]
    lat = np.concatenate([p.latencies_ref_s for p in every]) * 1e3
    setup = [p.setup_ref_s for p in every]
    firsts = [ps[0] for ps in passes]
    led = _sum_ledgers(firsts)
    updates = sum(p.updates for p in firsts)
    failures = sum(len(r.failures) for r in runners)
    attempted = sum(r.attempted for r in runners)
    metrics = {
        "throughput_ups": (updates / wall_ref, "1/s"),
        "latency_p50_ms": (float(np.quantile(lat, 0.5)), "ms"),
        "latency_p90_ms": (float(np.quantile(lat, 0.9)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "mem_mb": (mem_mb, "MB"),
        "cells_per_update": (led.counters.cells_accessed / updates, "count"),
        "syncs_per_update": (sum(p.fsyncs for p in firsts) / updates, "count"),
        "failed_share": (failures / max(attempted, 1), "share"),
    }
    samples = {
        "throughput_ups": f"median pass of each instance, {len(every)} passes",
        "latency_p50_ms": f"{len(lat)} updates pooled",
        "latency_p90_ms": f"{len(lat)} updates pooled",
        "setup_s": f"median of {len(setup)} builds",
        "mem_mb": "1 traced-heap pass",
        "cells_per_update": f"{updates} updates, exact",
        "syncs_per_update": f"{updates} updates, exact",
        "failed_share": f"{attempted} updates attempted",
    }
    if resumes:
        metrics["recover_s"] = (statistics.median(s * f for s, f in resumes), "s")
        samples["recover_s"] = f"median of {len(resumes)} recoveries"
    c = led.counters
    lines = [
        f"workload {spec.name}: {spec.why}",
        f"inputs: |U|={spec.n_units} |P|={len(runners[0].inputs.places)} "
        f"k={CONFIG.k} burst={spec.burst or 1} shards={spec.shards}; "
        f"{len(runners)} instances x {spec.stream_length} updates, "
        f"{rounds} rounds",
        f"input properties: coalesced share "
        f"{c.coalesced_updates / max(c.updates_processed, 1):.3f}, updates "
        f"accessing >=1 cell {sum(p.accessed_updates for p in firsts) / updates:.3f}, "
        f"journal {sum(p.journal_records for p in firsts) / updates:.3f} "
        f"records and {sum(p.journal_bytes for p in firsts) / updates:.1f} B "
        "per update",
        _provenance(runners[0].workdir),
        f"speed factor (reference / measured calibration) {wall_ref / wall_raw:.3f}; "
        f"raw throughput {updates / wall_raw:.1f} 1/s",
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<18} {value:>14.6g} {unit:<6} ({samples[name]})")
    return metrics, lines


# -- traced run ----------------------------------------------------------------

#: (metric, layer, per update or per burst): every per-layer time printed.
_LAYER_TIMES = [
    ("engine.self_ms_per_update", "engine", "update"),
    ("core.events.observe_ms_per_update", "core.events.observe", "update"),
    ("core.maintain_ms_per_update", "core.maintain", "update"),
    ("core.access_ms_per_update", "core.access", "update"),
    ("core.batch.coalesce_ms_per_burst", "core.batch.coalesce", "burst"),
    ("core.kernels.apply_burst_ms_per_burst", "core.kernels.apply_burst", "burst"),
    ("index.ap_ms_per_update", "index.ap", "update"),
    ("index.move_ms_per_update", "index.move", "update"),
    ("storage.cell_read_ms_per_update", "storage.cell_read", "update"),
    ("shard.route_ms_per_update", "shard.route", "update"),
    ("shard.drain_ms_per_burst", "shard.drain", "burst"),
    ("shard.merge_ms_per_burst", "shard.merge", "burst"),
    ("state.journal_append_ms_per_update", "state.journal_append", "update"),
    ("obs.sync_ms_per_burst", "obs.sync", "burst"),
    ("obs.hooks_ms_per_update", "obs.hooks", "update"),
    ("obs.phase_ms_per_update", "obs.phase", "update"),
]


def traced_run(spec, runners, seed: int, seconds: float) -> tuple[dict, list[str]]:
    from perfbench.layers import LayerTotals, Recorder

    _warm_up(runners)
    recorder = Recorder()
    traced = []
    ratios = []
    timed = LayerTotals()
    setup = LayerTotals()

    def one_round(index: int) -> None:
        for j, runner in enumerate(runners):
            plain = runner.run_pass()
            runner.check(plain, f"instance {j} untraced pass {index + 1}")
            result = runner.run_pass(recorder)
            runner.check(result, f"instance {j} traced pass {index + 1}")
            if plain.error is None and result.error is None:
                traced.append(result)
                ratios.append(result.wall_s / plain.wall_s)
                setup.add(result.layers[0], result.factor)
                timed.add(result.layers[1], result.factor)

    _rounds(seconds, one_round, 1)
    for runner in runners:
        runner.validate()
    recovery = LayerTotals()
    if spec.durable:
        recorder.take()
        runners[0].crash_and_resume(2, recorder)
        recovery = recorder.take()
    trace_path = WORKDIR / f"{spec.name}-seed{seed}.trace.json"
    recorder.write_chrome_trace(trace_path)
    if not traced:
        return {}, ["every traced pass failed"]

    updates = sum(p.updates for p in traced)
    bursts = sum(p.bursts for p in traced)
    builds = len(traced)
    wall = sum(p.wall_ref_s for p in traced)
    attributed = sum(timed.self_s.values())
    # adjacent untraced/traced passes of one instance, paired in time.
    overhead = statistics.median(ratios) - 1.0
    firsts = traced[: len(runners)]
    led = _sum_ledgers(firsts)
    c, io, units = led.counters, led.io, led.units
    n = sum(p.updates for p in firsts)
    first_bursts = sum(p.bursts for p in firsts)
    adjustments = c.doo_suppressed + c.lb_decrements + c.lb_increments
    reads = io.page_reads + io.buffered_reads + io.array_hits
    shard_mean = sum(led.per_shard) / len(led.per_shard) if led.per_shard else 0

    def share(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    def hit_share(layer: str) -> float:
        """Share of the layer's calls whose result showed work done."""
        return share(timed.hits[layer], timed.calls[layer])

    values: dict[str, tuple[float, str]] = {}
    for metric, layer, per in _LAYER_TIMES:
        count = updates if per == "update" else bursts
        values[metric] = (timed.self_s.get(layer, 0.0) * 1e3 / count, "ms")
    values.update(
        {
            "core.events.change_share": (hit_share("core.events.observe"), "share"),
            "core.access_share": (hit_share("core.access"), "share"),
            "core.cells_per_update": (c.cells_accessed / n, "count"),
            "core.distance_rows_per_update": (c.distance_rows / n, "count"),
            "core.places_loaded_per_update": (c.places_loaded / n, "count"),
            "core.maintained_scans_per_update": (c.maintained_scans / n, "count"),
            "core.doo_suppressed_share": (
                share(c.doo_suppressed, adjustments),
                "share",
            ),
            "core.maintained_peak": (
                float(max(p.maintained_peak for p in firsts)),
                "count",
            ),
            "core.init_ms": (setup.incl_s.get("core.init", 0.0) * 1e3 / builds, "ms"),
            "api.build_ms": (setup.incl_s.get("api.build", 0.0) * 1e3 / builds, "ms"),
            "core.batch.coalesced_share": (
                share(c.coalesced_updates, c.updates_processed),
                "share",
            ),
            "index.reachable_share": (
                share(units.reachable_units, units.candidate_units),
                "share",
            ),
            "storage.page_reads_per_update": (io.page_reads / n, "count"),
            "storage.array_hit_share": (share(io.array_hits, reads), "share"),
            "shard.full_deliveries_per_update": (led.full / n, "count"),
            "shard.sync_deliveries_per_update": (led.sync / n, "count"),
            "shard.merge_records_pulled_per_burst": (
                led.merges[1] / first_bursts,
                "count",
            ),
            "shard.merge_refills_per_burst": (led.merges[2] / first_bursts, "count"),
            "shard.delivery_skew": (
                max(led.per_shard) / shard_mean if shard_mean else 0.0,
                "ratio",
            ),
            "state.journal_bytes_per_update": (
                sum(p.journal_bytes for p in firsts) / n,
                "B",
            ),
            "state.syncs_per_update": (sum(p.fsyncs for p in firsts) / n, "count"),
            "state.snapshot_ms": (
                share(
                    timed.incl_s.get("state.snapshot", 0.0) * 1e3,
                    timed.calls["state.snapshot"],
                ),
                "ms",
            ),
            "state.recover_restore_ms": (
                recovery.incl_s.get("state.recover_restore", 0.0) * 1e3,
                "ms",
            ),
            "state.recover_replay_ms": (
                recovery.incl_s.get("state.recover_replay", 0.0) * 1e3,
                "ms",
            ),
            "state.replayed_records": (
                float(recovery.hits["state.recover_replay"]),
                "count",
            ),
            "trace.attributed_share": (attributed / wall, "share"),
            "trace.overhead_share": (overhead, "share"),
        }
    )

    lines = [
        f"workload {spec.name}: {len(traced)} traced passes over "
        f"{len(runners)} instances, {updates} updates, {bursts} bursts "
        "(each after an untraced pass of the same instance)",
        f"{'layer':<26}{'self ms/upd':>12}{'self ms/burst':>14}"
        f"{'wall share':>11}{'calls/upd':>10}",
    ]
    for layer in sorted(timed.self_s, key=timed.self_s.get, reverse=True):
        seconds_ = timed.self_s[layer]
        lines.append(
            f"{layer:<26}{seconds_ * 1e3 / updates:>12.5f}"
            f"{seconds_ * 1e3 / bursts:>14.5f}{seconds_ / wall:>11.3%}"
            f"{timed.calls[layer] / updates:>10.3f}"
        )
    lines += [
        f"{'unattributed':<26}{(wall - attributed) * 1e3 / updates:>12.5f}"
        f"{(wall - attributed) * 1e3 / bursts:>14.5f}"
        f"{1 - attributed / wall:>11.3%}",
        f"layer self times cover {attributed / wall:.2%} of traced pass wall "
        f"time; tracing overhead {overhead:+.1%} (median ratio of traced to "
        f"untraced pass wall time); spans kept {len(recorder.spans)}, dropped "
        f"{recorder.dropped}; Chrome trace {trace_path.relative_to(ROOT)}",
    ]
    lines += [
        f"  {name:<40} {value:>14.6g} {unit}" for name, (value, unit) in values.items()
    ]
    return values, lines


# -- repeat mode -----------------------------------------------------------------


def repeat(workloads: list[str], runs: int, seed: int, seconds: int) -> int:
    """Run every workload ``runs`` times, interleaved, and report each
    end-to-end metric's median and quartile spread against its bound."""
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for name in order:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed + i),
                "--seconds", str(seconds), "--trace", "0",
            ]
            started = perf_counter()
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=600
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr)
                print(f"{name} seed {seed + i}: exit {done.returncode}")
                return 1
            print("\n".join(lines[:-1]), flush=True)
            print(f"  ({perf_counter() - started:.1f} s)", flush=True)
            results[name].append(json.loads(lines[-1]))
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / "repeat.json").write_text(json.dumps(results))
    worst = 0.0
    print(f"\n{'workload':<18}{'metric':<18}{'median':>12}{'spread':>9}"
          f"{'bound':>7}{'spread/bound':>13}")
    for name, rows in results.items():
        for metric, bound in bounds.items():
            values = [row["metrics"][metric]["value"] for row in rows]
            median = statistics.median(values)
            spread = 0.0
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:<18}{metric:<18}{median:>12.5g}{spread:>9.3f}"
                  f"{bound:>7.2f}{spread / bound:>13.2f}")
    print(f"largest spread/bound (setup_s aside): {worst:.2f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    if any(name not in WORKLOADS for name in names):
        parser.error(
            f"--workload: one or more of {', '.join(WORKLOADS)} "
            "(comma-separated), or all"
        )
    if args.repeat or len(names) > 1:
        return repeat(names, max(args.repeat, 1), args.seed, args.seconds)

    import gc

    from perfbench.passes import FsyncCounter, Runner

    spec = WORKLOADS[names[0]]
    started = perf_counter()
    inputs = spec.inputs(args.seed)
    # inputs live for the whole run: keep them out of the collector's scans.
    gc.collect()
    gc.freeze()
    workdir = WORKDIR / spec.name
    workdir.mkdir(parents=True, exist_ok=True)
    with FsyncCounter() as fsync:
        runners = [Runner(spec, one, workdir, fsync) for one in inputs]
        if args.trace:
            kind = "per_layer"
            values, lines = traced_run(spec, runners, args.seed, args.seconds)
        else:
            kind = "end_to_end"
            values, lines = timed_run(spec, runners, args.seconds)
    print("\n".join(lines))
    failures = [f for runner in runners for f in runner.failures]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"run took {perf_counter() - started:.1f} s")
    if values:
        _emit(
            not failures,
            sum(runner.attempted for runner in runners),
            len(failures),
            _select(kind, values),
        )
    return 1 if failures or not values else 0


if __name__ == "__main__":
    sys.exit(main())
