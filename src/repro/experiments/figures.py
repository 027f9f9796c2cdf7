"""Runners for Figures 3-9 and Table III.

Each runner rebuilds the paper's workload at (scaled) Table III sizes,
executes the algorithms the figure compares, and returns the figure's
series as a table. Absolute milliseconds differ from the paper's Java /
Pentium IV testbed; EXPERIMENTS.md tracks the *shapes* listed in each
experiment's ``expected_shape``.
"""

from __future__ import annotations

from repro.bench.harness import RunResult, run_monitor
from repro.bench.workload import Workload, build_workload
from repro.core import BasicCTUP, NaiveCTUP, OptCTUP
from repro.experiments import defaults
from repro.experiments.registry import Experiment, ExperimentResult, register
from repro.model import Unit


def _scaled(scale: float | None) -> tuple[int, int, int]:
    """(n_places, comparison stream, sweep stream) at the given scale."""
    if scale is None:
        scale = defaults.bench_scale()
    n_places = max(500, int(defaults.N_PLACES * scale))
    comparison = max(50, int(defaults.STREAM_COMPARISON * scale))
    sweep_updates = max(50, int(defaults.STREAM_SWEEP * scale))
    return n_places, comparison, sweep_updates


def _speedup_note(slow: RunResult, fast: RunResult) -> str:
    if fast.avg_update_ms <= 0:
        return f"{fast.algorithm} update cost too small to time"
    factor = slow.avg_update_ms / fast.avg_update_ms
    return (
        f"{fast.algorithm} is {factor:.1f}x cheaper per update than "
        f"{slow.algorithm}"
    )


# -- Table III ---------------------------------------------------------------


def run_table3(**_ignored) -> ExperimentResult:
    """Print the default parameter values (Table III)."""
    rows = [[name, value] for name, value in defaults.TABLE3_DEFAULTS.items()]
    return ExperimentResult(
        experiment_id="table3",
        title="Default parameter values (Table III)",
        headers=["Parameter", "Default Value"],
        rows=rows,
        notes=["encoded in repro.experiments.defaults and CTUPConfig"],
    )


# -- Fig. 3: initialization time ---------------------------------------------


def run_fig3(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """Initialization time of the three schemes."""
    n_places, _, _ = _scaled(scale)
    workload = build_workload(
        n_units=defaults.N_UNITS,
        n_places=n_places,
        protection_range=defaults.PROTECTION_RANGE,
        stream_length=0,
        seed=seed,
    )
    config = defaults.default_config()
    rows = []
    timings = {}
    for factory in (NaiveCTUP, BasicCTUP, OptCTUP):
        monitor = factory(config, workload.places, workload.units)
        report = monitor.initialize()
        timings[monitor.name] = report.seconds
        rows.append(
            [
                monitor.name,
                report.seconds * 1e3,
                report.cells_accessed,
                report.places_loaded,
                report.maintained_places,
            ]
        )
    notes = [
        "expected shape: naive fastest (no bound bookkeeping), "
        "basic slowest, opt in between",
        f"observed: naive {timings['naive'] * 1e3:.1f} ms, "
        f"basic {timings['basic'] * 1e3:.1f} ms, "
        f"opt {timings['opt'] * 1e3:.1f} ms",
    ]
    return ExperimentResult(
        experiment_id="fig3",
        title="Comparison of initialization time",
        headers=["algorithm", "init ms", "cells accessed", "places loaded", "maintained"],
        rows=rows,
        notes=notes,
    )


# -- Fig. 4: update cost ------------------------------------------------------


def run_fig4(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """Average per-update cost of the three schemes."""
    n_places, comparison, _ = _scaled(scale)
    workload = build_workload(
        n_units=defaults.N_UNITS,
        n_places=n_places,
        protection_range=defaults.PROTECTION_RANGE,
        stream_length=comparison,
        seed=seed,
    )
    config = defaults.default_config()
    results = {
        name: run_monitor(name, config, workload)
        for name in ("naive", "basic", "opt")
    }
    rows = [
        [
            name,
            r.avg_update_ms,
            r.update_counters.distance_rows / max(r.n_updates, 1),
            r.cells_per_update,
            r.counters.maintained_peak,
            r.n_updates,
        ]
        for name, r in results.items()
    ]
    notes = [
        "expected shape: opt << basic < naive (paper: opt wins by a large margin)",
        _speedup_note(results["naive"], results["opt"]),
        _speedup_note(results["basic"], results["opt"]),
        "the 'dist evals/upd' column is hardware-independent; vectorisation "
        "compresses the wall-clock gap that the paper's scalar loops show",
    ]
    return ExperimentResult(
        experiment_id="fig4",
        title="Comparison of update cost",
        headers=[
            "algorithm",
            "avg update ms",
            "dist evals/upd",
            "cells/update",
            "maintained peak",
            "updates",
        ],
        rows=rows,
        notes=notes,
    )


# -- Figs. 5-7: basic-vs-opt sweeps -------------------------------------------


def _run_basic_opt_sweep(
    experiment_id: str,
    title: str,
    x_name: str,
    x_values: list,
    point_workload,
    point_config,
    extra_notes: list[str] | None = None,
) -> ExperimentResult:
    """Shared machinery of Figures 5, 6 and 7."""
    rows = []
    worst_ratio = None
    for x in x_values:
        workload = point_workload(x)
        config = point_config(x)
        basic = run_monitor("basic", config, workload)
        opt = run_monitor("opt", config, workload)
        ratio = (
            basic.avg_update_ms / opt.avg_update_ms
            if opt.avg_update_ms > 0
            else float("nan")
        )
        worst_ratio = ratio if worst_ratio is None else min(worst_ratio, ratio)
        rows.append(
            [
                x,
                basic.avg_update_ms,
                opt.avg_update_ms,
                ratio,
                basic.cells_per_update,
                opt.cells_per_update,
            ]
        )
    notes = [
        "expected shape: opt below basic across the whole sweep "
        "(paper plots these in log scale)",
        f"observed: min basic/opt cost ratio across the sweep = "
        f"{worst_ratio:.2f}",
    ]
    notes.extend(extra_notes or [])
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=[
            x_name,
            "basic ms/upd",
            "opt ms/upd",
            "basic/opt",
            "basic cells/upd",
            "opt cells/upd",
        ],
        rows=rows,
        notes=notes,
    )


def run_fig5(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """Update cost varying k."""
    n_places, _, sweep_updates = _scaled(scale)
    workload = build_workload(
        n_units=defaults.N_UNITS,
        n_places=n_places,
        protection_range=defaults.PROTECTION_RANGE,
        stream_length=sweep_updates,
        seed=seed,
    )
    return _run_basic_opt_sweep(
        "fig5",
        "Update cost varying k",
        "k",
        [5, 10, 15, 20, 25],
        point_workload=lambda k: workload,
        point_config=lambda k: defaults.default_config(k=k),
    )


def run_fig6(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """Update cost varying the partition granularity."""
    n_places, _, sweep_updates = _scaled(scale)
    workload = build_workload(
        n_units=defaults.N_UNITS,
        n_places=n_places,
        protection_range=defaults.PROTECTION_RANGE,
        stream_length=sweep_updates,
        seed=seed,
    )
    return _run_basic_opt_sweep(
        "fig6",
        "Update cost varying partitioning granularity",
        "granularity",
        [5, 10, 15, 20, 25],
        point_workload=lambda g: workload,
        point_config=lambda g: defaults.default_config(granularity=g),
    )


def run_fig7(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """Update cost varying the protection range."""
    n_places, _, sweep_updates = _scaled(scale)
    base = build_workload(
        n_units=defaults.N_UNITS,
        n_places=n_places,
        protection_range=defaults.PROTECTION_RANGE,
        stream_length=sweep_updates,
        seed=seed,
    )

    def with_range(radius: float) -> Workload:
        units = [
            Unit(u.unit_id, u.location, radius) for u in base.units
        ]
        return Workload(base.places, units, base.stream)

    return _run_basic_opt_sweep(
        "fig7",
        "Update cost varying protection range",
        "range",
        [0.05, 0.1, 0.15, 0.2, 0.25],
        point_workload=with_range,
        point_config=lambda r: defaults.default_config(protection_range=r),
        extra_notes=[
            "the same movement stream is replayed for every range; only "
            "the protection disks change"
        ],
    )


# -- Fig. 8: the effect of DOO -------------------------------------------------


def run_fig8(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """OptCTUP with and without DOO, varying the number of places."""
    base_places, _, sweep_updates = _scaled(scale)
    factor = base_places / defaults.N_PLACES
    place_counts = [
        max(500, int(n * factor))
        for n in (5_000, 10_000, 15_000, 20_000, 25_000)
    ]
    rows = []
    worst_ratio = None
    for n_places in place_counts:
        workload = build_workload(
            n_units=defaults.N_UNITS,
            n_places=n_places,
            protection_range=defaults.PROTECTION_RANGE,
            stream_length=sweep_updates,
            seed=seed,
        )
        with_doo = run_monitor(
            "opt", defaults.default_config(use_doo=True), workload
        )
        without_doo = run_monitor(
            "opt", defaults.default_config(use_doo=False), workload
        )
        ratio = (
            without_doo.avg_update_ms / with_doo.avg_update_ms
            if with_doo.avg_update_ms > 0
            else float("nan")
        )
        worst_ratio = ratio if worst_ratio is None else min(worst_ratio, ratio)
        rows.append(
            [
                n_places,
                with_doo.avg_update_ms,
                without_doo.avg_update_ms,
                ratio,
                with_doo.cells_per_update,
                without_doo.cells_per_update,
            ]
        )
    notes = [
        "expected shape: DOO cheaper than no-DOO, gap growing with |P|",
        f"observed: min no-DOO/DOO cost ratio = {worst_ratio:.2f}",
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title="Update cost varying the number of places (DOO on/off)",
        headers=[
            "|P|",
            "DOO ms/upd",
            "no-DOO ms/upd",
            "no-DOO/DOO",
            "DOO cells/upd",
            "no-DOO cells/upd",
        ],
        rows=rows,
        notes=notes,
    )


# -- Fig. 9: the effect of Δ ----------------------------------------------------


def run_fig9(scale: float | None = None, seed: int = 0) -> ExperimentResult:
    """OptCTUP update-cost breakdown varying Δ."""
    n_places, _, sweep_updates = _scaled(scale)
    workload = build_workload(
        n_units=defaults.N_UNITS,
        n_places=n_places,
        protection_range=defaults.PROTECTION_RANGE,
        stream_length=sweep_updates,
        seed=seed,
    )
    rows = []
    maintain_series = []
    access_series = []
    for delta in (0, 2, 4, 6, 8, 10):
        result = run_monitor(
            "opt", defaults.default_config(delta=delta), workload
        )
        maintain_series.append(result.avg_maintain_ms)
        access_series.append(result.avg_access_ms)
        rows.append(
            [
                delta,
                result.avg_update_ms,
                result.avg_maintain_ms,
                result.avg_access_ms,
                result.counters.maintained_peak,
                result.cells_per_update,
            ]
        )
    notes = [
        "expected shape: maintain cost grows with delta, cell-access "
        "cost shrinks with delta",
        f"observed: maintain ms {maintain_series[0]:.3f} -> "
        f"{maintain_series[-1]:.3f}, access ms {access_series[0]:.3f} -> "
        f"{access_series[-1]:.3f}",
    ]
    return ExperimentResult(
        experiment_id="fig9",
        title="Update cost split into maintain/access parts, varying delta",
        headers=[
            "delta",
            "total ms/upd",
            "maintain ms/upd",
            "access ms/upd",
            "maintained peak",
            "cells/upd",
        ],
        rows=rows,
        notes=notes,
    )


# -- registration ---------------------------------------------------------------

register(
    Experiment(
        "table3",
        "Default parameter values",
        "Table III",
        "table",
        "configuration constants, no measurement",
        run_table3,
    )
)
register(
    Experiment(
        "fig3",
        "Comparison of initialization time",
        "Fig. 3",
        "figure",
        "naive fastest, basic worst, opt between",
        run_fig3,
    )
)
register(
    Experiment(
        "fig4",
        "Comparison of update cost",
        "Fig. 4",
        "figure",
        "opt << basic < naive",
        run_fig4,
    )
)
register(
    Experiment(
        "fig5",
        "Update cost varying k",
        "Fig. 5",
        "figure",
        "opt below basic for every k",
        run_fig5,
    )
)
register(
    Experiment(
        "fig6",
        "Update cost varying partitioning granularity",
        "Fig. 6",
        "figure",
        "opt below basic for every granularity",
        run_fig6,
    )
)
register(
    Experiment(
        "fig7",
        "Update cost varying protection range",
        "Fig. 7",
        "figure",
        "opt below basic for every range",
        run_fig7,
    )
)
register(
    Experiment(
        "fig8",
        "Update cost varying number of places (DOO effect)",
        "Fig. 8",
        "figure",
        "DOO beats no-DOO, gap grows with |P|",
        run_fig8,
    )
)
register(
    Experiment(
        "fig9",
        "Update cost breakdown varying delta",
        "Fig. 9",
        "figure",
        "maintain cost rises, access cost falls as delta grows",
        run_fig9,
    )
)
