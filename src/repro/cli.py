"""Command-line interface.

``ctup list`` shows every registered experiment; ``ctup run fig4``
regenerates one paper artefact and prints its series; ``ctup run all``
walks the whole evaluation. ``--scale`` shrinks workloads for quick
looks (1.0 = Table III sizes).

The entry point is installed as ``ctup`` and also runs as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments import all_experiments, get_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctup",
        description=(
            "Reproduction harness for 'On Monitoring the top-k Unsafe "
            "Places' (ICDE 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all registered experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id (fig3..fig9, table3, ablation_*, or 'all')",
    )
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor; 1.0 = paper sizes (default: "
        "REPRO_BENCH_SCALE or 1.0)",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )

    report = sub.add_parser(
        "report",
        help="run every experiment and write a markdown results report",
    )
    report.add_argument(
        "--out",
        default="MEASURED.md",
        help="output path (default MEASURED.md; '-' prints to stdout)",
    )
    report.add_argument("--scale", type=float, default=None)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="restrict to these experiment ids",
    )

    simulate = sub.add_parser(
        "simulate",
        help="run a named scenario live and print a dashboard",
    )
    simulate.add_argument(
        "scenario", help="scenario name (see repro.workloads.SCENARIOS)"
    )
    simulate.add_argument("--updates", type=int, default=1_000)
    simulate.add_argument("--k", type=int, default=10)
    simulate.add_argument("--places", type=int, default=4_000)
    simulate.add_argument("--units", type=int, default=50)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--scheme",
        default="opt",
        help="monitoring scheme (a repro.api.SCHEMES key; default opt)",
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the scheme sharded over this many shards (0 = unsharded)",
    )
    simulate.add_argument(
        "--map", action="store_true", help="render the final cell map"
    )
    simulate.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="ingest in exact bursts of this size (0 = one by one)",
    )
    simulate.add_argument(
        "--checkpoint-dir",
        default=None,
        help="journal every update there and snapshot per "
        "--checkpoint-every (plus once when the run ends)",
    )
    simulate.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="with --checkpoint-dir: snapshot every N flush boundaries "
        "(0 = only at the end)",
    )
    simulate.add_argument(
        "--resume",
        action="store_true",
        help="recover --checkpoint-dir and continue the interrupted run "
        "(pass the same scenario knobs and --batch-size)",
    )
    simulate.add_argument(
        "--metrics",
        action="store_true",
        help="collect registry metrics and print the Prometheus text "
        "exposition after the run",
    )
    simulate.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="trace phases/flushes/shard drains and write a Chrome "
        "trace (chrome://tracing JSON) to PATH",
    )

    checkpoint = sub.add_parser(
        "checkpoint",
        help="inspect a checkpoint directory (snapshots, journal and "
        "its control events)",
    )
    checkpoint.add_argument(
        "directory", help="a --checkpoint-dir from a previous run"
    )

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo-aware static analyzer",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="lint_format",
        help="report format (default text)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    lint.add_argument(
        "--mypy",
        action="store_true",
        help="also run mypy over the strict-typed module set, if installed",
    )
    return parser


def _cmd_list() -> int:
    for experiment in all_experiments():
        print(
            f"{experiment.experiment_id:22s} {experiment.paper_ref:14s} "
            f"{experiment.title}"
        )
        print(f"{'':22s} expected: {experiment.expected_shape}")
    return 0


def _cmd_run(experiment_id: str, scale: float | None, seed: int) -> int:
    if experiment_id == "all":
        targets = all_experiments()
    else:
        targets = [get_experiment(experiment_id)]
    for experiment in targets:
        start = time.perf_counter()
        result = experiment.run(scale=scale, seed=seed)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"  ({experiment.paper_ref}; regenerated in {elapsed:.1f}s)")
        print()
    return 0


def _cmd_report(out: str, scale: float | None, seed: int, only) -> int:
    from repro.bench.report import generate_report

    text = generate_report(scale=scale, seed=seed, experiment_ids=only)
    if out == "-":
        print(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.api import ObsSpec, ShardSpec, make_monitor
    from repro.sim import Simulation

    def factory(config, places, units):
        return make_monitor(
            args.scheme,
            places=places,
            units=units,
            config=config,
            shard=ShardSpec(shards=args.shards),
        )

    if args.resume and args.checkpoint_dir is None:
        print("--resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    obs_spec = None
    if args.metrics or args.trace_out is not None:
        obs_spec = ObsSpec(
            metrics=args.metrics, trace=args.trace_out is not None
        )
    sim = Simulation.from_scenario(
        args.scenario,
        k=args.k,
        n_places=args.places,
        n_units=args.units,
        seed=args.seed,
        monitor_factory=factory,
        batch_size=args.batch_size,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        obs=obs_spec,
    )
    if args.resume:
        print(
            f"resumed from {args.checkpoint_dir}: "
            f"{sim.session.updates_processed} updates recovered "
            f"(journal seq {sim.session.applied_seq})"
        )
    outcome = sim.run(updates=args.updates)
    if args.trace_out is not None:
        from repro.obs import write_chrome_trace

        tracer = sim.session.observability.tracer
        written = write_chrome_trace(tracer.spans(), args.trace_out)
        print(
            f"wrote {written} trace event(s) to {args.trace_out} "
            f"({tracer.emitted} emitted)",
            file=sys.stderr,
        )
    metrics_text = sim.session.metrics_text() if args.metrics else None
    if args.checkpoint_dir is not None:
        sim.session.close()
    summary = outcome.summary
    print(
        f"{args.scenario}: {outcome.updates} updates, "
        f"SK {summary.sk_start:+.0f} -> {summary.sk_end:+.0f} "
        f"({summary.sk_changes} moves), "
        f"{len(outcome.changes)} result changes"
    )
    print(
        f"cost: p50 {summary.update_ms_p50:.3f} ms, "
        f"p95 {summary.update_ms_p95:.3f} ms per update; "
        f"{summary.accesses_total} cell accesses; "
        f"maintained mean {summary.maintained_mean:.0f} "
        f"max {summary.maintained_max}"
    )
    print("\ncurrent top unsafe places:")
    for rank, record in enumerate(outcome.final_topk, start=1):
        print(
            f"  {rank:2d}. {record.place.kind:14s} #{record.place_id:<6d} "
            f"safety {record.safety:+.0f}"
        )
    if args.map:
        from repro.bench.render import render_cell_map

        print()
        print(render_cell_map(sim.monitor))
    if metrics_text is not None:
        # last on stdout, contiguous from the first "# HELP" line, so
        # scrape-style consumers can slice it off the dashboard output.
        print()
        print(metrics_text, end="")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.control import decode_event, encode_event
    from repro.state import CheckpointStore, SnapshotError, UpdateJournal

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"no checkpoint directory at {directory}", file=sys.stderr)
        return 1
    store = CheckpointStore(directory)
    snapshots = store.snapshot_paths()
    try:
        document = store.latest()
    except SnapshotError as error:
        print(f"unreadable snapshot: {error}", file=sys.stderr)
        return 1
    if document is None:
        print(f"{directory}: no snapshots")
    else:
        meta = document.get("session", {})
        config = document.get("config", {})
        print(f"{directory}: {len(snapshots)} snapshot(s)")
        print(
            f"latest: scheme {document['scheme']!r}, "
            f"journal seq {document['journal_seq']}, "
            f"{meta.get('updates_processed', 0)} updates processed, "
            f"{snapshots[-1].stat().st_size} bytes"
        )
        print(
            f"world: epoch {document.get('epoch', 0)}, k={config.get('k')}, "
            f"granularity={config.get('granularity')}"
        )
    if store.journal_path.exists():
        journal = UpdateJournal(store.journal_path)
        try:
            after = document["journal_seq"] if document else 0
            total = tail = 0
            for record in journal.records():
                total += 1
                if record.seq > after:
                    tail += 1
            print(
                f"journal: {total} record(s), last seq {journal.last_seq}, "
                f"{tail} past the latest snapshot"
            )
            controls = journal.control_records()
            print(
                f"control events: {len(controls)} journaled, "
                f"{sum(r.seq > after for r in controls)} past the latest "
                "snapshot"
            )
            for record in controls:
                # re-encoding drops the "mode" key of a <=5.0 record.
                payload = encode_event(decode_event(record.control))
                state = "tail" if record.seq > after else "snapshot"
                print(f"  seq {record.seq:6d} [{state}] {payload}")
        finally:
            journal.close()
    else:
        print("journal: none")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    forwarded = list(args.paths)
    forwarded += ["--format", args.lint_format]
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.mypy:
        forwarded.append("--mypy")
    return lint_main(forwarded)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.scale, args.seed)
    if args.command == "report":
        return _cmd_report(args.out, args.scale, args.seed, args.only)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
