"""Cross-scheme equivalence: all monitors answer the same query.

Every scheme must report a *valid* top-k set: same SK, exact safeties,
and every place strictly below SK included. At the SK boundary several
places can tie, and which tied place fills the k-th slot legitimately
differs between schemes (a tied place in a never-accessed dark cell is
not maintained and cannot be chosen) — the paper's Definition 4 itself
is ambiguous there. The tests therefore compare SK and the strict
sub-SK set across schemes, and validate everything against the
brute-force oracle, across the paper's parameter grid.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BasicCTUP, CTUPConfig, NaiveCTUP, OptCTUP
from repro.core.incremental import IncrementalNaiveCTUP
from repro.validate import Oracle
from repro.workloads import (
    RandomWalkMobility,
    generate_places,
    generate_units,
    record_stream,
)

SCHEMES = [NaiveCTUP, BasicCTUP, OptCTUP, IncrementalNaiveCTUP]


def check_stream(config, places, units, stream):
    """Every scheme reports a valid top-k after every update, with the
    same SK and the same places strictly below it."""
    monitors = [cls(config, places, units) for cls in SCHEMES]
    oracle = Oracle(places, units)
    for monitor in monitors:
        monitor.initialize()
    for i, update in enumerate(stream):
        oracle.apply(update)
        answers = set()
        for monitor in monitors:
            monitor.process(update)
            result = monitor.top_k()
            verdict = oracle.validate(result, config.k)
            assert verdict.ok, (i, monitor.name, verdict.problems[:3])
            sk = monitor.sk()
            answers.add((sk, frozenset(r.place_id for r in result if r.safety < sk)))
        assert len(answers) == 1, (i, answers)


def run_all(config, n_places, n_units, n_updates, seed):
    places = generate_places(n_places, seed=seed)
    units = generate_units(n_units, config.protection_range, seed=seed + 1)
    stream = record_stream(
        RandomWalkMobility(units, step=0.03, seed=seed + 2), n_updates
    )
    check_stream(config, places, units, stream)


class TestDefaultConfig:
    def test_equivalence_default(self):
        run_all(
            CTUPConfig(k=5, delta=3, protection_range=0.1, granularity=8),
            n_places=1200,
            n_units=30,
            n_updates=120,
            seed=100,
        )


@pytest.mark.parametrize("k", [1, 3, 10])
def test_equivalence_varying_k(k):
    run_all(
        CTUPConfig(k=k, delta=3, protection_range=0.1, granularity=8),
        n_places=800,
        n_units=25,
        n_updates=80,
        seed=200 + k,
    )


@pytest.mark.parametrize("granularity", [1, 3, 12])
def test_equivalence_varying_granularity(granularity):
    run_all(
        CTUPConfig(k=5, delta=3, protection_range=0.1, granularity=granularity),
        n_places=800,
        n_units=25,
        n_updates=80,
        seed=300 + granularity,
    )


@pytest.mark.parametrize("radius", [0.02, 0.25])
def test_equivalence_varying_range(radius):
    run_all(
        CTUPConfig(k=5, delta=3, protection_range=radius, granularity=8),
        n_places=800,
        n_units=25,
        n_updates=80,
        seed=400,
    )


@pytest.mark.parametrize("delta", [0, 1, 10])
def test_equivalence_varying_delta(delta):
    run_all(
        CTUPConfig(k=5, delta=delta, protection_range=0.1, granularity=8),
        n_places=800,
        n_units=25,
        n_updates=80,
        seed=500 + delta,
    )


def test_equivalence_without_doo():
    config = CTUPConfig(
        k=5, delta=3, protection_range=0.1, granularity=8, use_doo=False
    )
    run_all(config, n_places=800, n_units=25, n_updates=80, seed=600)


def test_equivalence_tiny_world():
    """Very few places and units; k covers everything."""
    run_all(
        CTUPConfig(k=8, delta=2, protection_range=0.2, granularity=3),
        n_places=10,
        n_units=3,
        n_updates=60,
        seed=700,
    )


@pytest.mark.parametrize("network", ["grid", "radial", "random"])
def test_equivalence_network_streams(network):
    """The benchmark workload (road-network movement) agrees too."""
    from repro.bench import build_workload

    config = CTUPConfig(k=6, delta=4, protection_range=0.1, granularity=8)
    workload = build_workload(
        n_units=25,
        n_places=900,
        stream_length=150,
        seed=17,
        network=network,
    )
    check_stream(config, workload.places, workload.units, workload.stream)


def test_equivalence_directed_patrol_stream():
    """Hotspot-seeking fleets (worst case for hot cells) agree as well."""
    from repro.workloads import build_scenario

    config = CTUPConfig(k=6, delta=4, protection_range=0.1, granularity=8)
    world = build_scenario(
        "directed-patrol", seed=23, n_places=900, n_units=25, stream_length=150
    )
    check_stream(config, world.places, world.units, world.stream)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    k=st.integers(1, 8),
    delta=st.integers(0, 6),
    granularity=st.integers(2, 10),
    seed=st.integers(0, 10_000),
)
def test_equivalence_property(k, delta, granularity, seed):
    """Random configurations never break cross-scheme agreement."""
    run_all(
        CTUPConfig(
            k=k, delta=delta, protection_range=0.12, granularity=granularity
        ),
        n_places=300,
        n_units=12,
        n_updates=40,
        seed=seed,
    )
