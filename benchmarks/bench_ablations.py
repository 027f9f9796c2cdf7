"""Ablations beyond the paper's figures (DESIGN.md §6)."""

from conftest import column

from repro.experiments import get_experiment


def test_ablation_buffer_pool(benchmark, record_result):
    """A larger buffer pool absorbs more of the simulated I/O."""
    result = benchmark.pedantic(
        get_experiment("ablation_buffer").run, rounds=1, iterations=1
    )
    record_result(result)
    physical = column(result, "physical reads")
    assert physical == sorted(physical, reverse=True)
    assert physical[-1] < physical[0]


def test_ablation_incremental_baseline(benchmark, record_result):
    """Grid bounds beat incrementality alone on touched-place counts."""
    result = benchmark.pedantic(
        get_experiment("ablation_incremental").run, rounds=1, iterations=1
    )
    record_result(result)
    algos = column(result, "algorithm")
    scanned = dict(zip(algos, column(result, "places scanned/upd")))
    work = dict(zip(algos, column(result, "distance rows/upd")))
    # the incremental baseline touches every place every update; opt
    # touches only its maintained band.
    assert scanned["opt"] * 10 < scanned["incremental"]
    assert work["opt"] < work["incremental"] < work["naive"]


def test_ablation_network_topologies(benchmark, record_result):
    """OptCTUP wins on every road-network family."""
    result = benchmark.pedantic(
        get_experiment("ablation_network").run, rounds=1, iterations=1
    )
    record_result(result)
    for network, basic, opt in zip(
        column(result, "network"),
        column(result, "basic ms/upd"),
        column(result, "opt ms/upd"),
    ):
        assert opt < basic, f"opt should beat basic on the {network} network"


def test_ablation_placement(benchmark, record_result):
    """OptCTUP maintains fewer places under both placement regimes."""
    result = benchmark.pedantic(
        get_experiment("ablation_placement").run, rounds=1, iterations=1
    )
    record_result(result)
    for placement, basic_peak, opt_peak in zip(
        column(result, "placement"),
        column(result, "basic maintained peak"),
        column(result, "opt maintained peak"),
    ):
        assert opt_peak < basic_peak, placement


def test_ablation_batch_processing(benchmark, record_result):
    """Burst processing never accesses more cells than per-update."""
    result = benchmark.pedantic(
        get_experiment("ablation_batch").run, rounds=1, iterations=1
    )
    record_result(result)
    accesses = column(result, "cells accessed")
    assert accesses[-1] <= accesses[0]
