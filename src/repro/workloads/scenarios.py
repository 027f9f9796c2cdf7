"""Named city scenarios.

A scenario bundles a coherent set of workload choices — road topology,
place placement, requirement skew, fleet behaviour — under one name, so
examples, tests and ad-hoc experiments can say ``build_scenario(
"downtown")`` instead of repeating six keyword arguments. Every scenario
is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.model import Place, Unit
from repro.roadnet import (
    DirectedPatrolMobility,
    NetworkMobility,
    grid_network,
    radial_network,
    random_network,
)
from repro.workloads.places import RequiredProtectionModel, generate_places
from repro.workloads.stream import UpdateStream, record_stream


@dataclass(frozen=True)
class ScenarioWorld:
    """Everything a monitor run needs, plus the live mobility model."""

    name: str
    places: Sequence[Place]
    units: Sequence[Unit]
    stream: UpdateStream
    mobility: NetworkMobility

    def hotspots(self, min_required: int = 5) -> list[Place]:
        """The high-value places of this world."""
        return [
            p for p in self.places if p.required_protection >= min_required
        ]


@dataclass(frozen=True)
class Scenario:
    """A named, documented workload recipe."""

    name: str
    description: str
    builder: Callable[[int, int, int, float, int], ScenarioWorld]

    def build(
        self,
        seed: int = 0,
        n_places: int = 6_000,
        n_units: int = 60,
        protection_range: float = 0.1,
        stream_length: int = 1_000,
    ) -> ScenarioWorld:
        return self.builder(
            seed, n_places, n_units, protection_range, stream_length
        )


def _downtown(seed, n_places, n_units, protection_range, stream_length):
    """Dense clustered core on a Manhattan grid, uniform patrol."""
    places = generate_places(
        n_places, seed=seed, placement="clustered"
    )
    mobility = NetworkMobility(
        grid_network(rows=14, cols=14, seed=seed + 1),
        count=n_units,
        seed=seed + 2,
    )
    return ScenarioWorld(
        "downtown",
        places,
        mobility.initial_units(protection_range),
        record_stream(mobility, stream_length),
        mobility,
    )


def _old_town(seed, n_places, n_units, protection_range, stream_length):
    """Radial ring-and-spoke topology, clustered places."""
    places = generate_places(n_places, seed=seed, placement="clustered")
    mobility = NetworkMobility(
        radial_network(rings=5, spokes=14, seed=seed + 1),
        count=n_units,
        seed=seed + 2,
    )
    return ScenarioWorld(
        "old-town",
        places,
        mobility.initial_units(protection_range),
        record_stream(mobility, stream_length),
        mobility,
    )


def _suburbia(seed, n_places, n_units, protection_range, stream_length):
    """Sparse uniform sprawl, mild requirements, random roads."""
    mild = RequiredProtectionModel(
        tiers=(
            (0, 0.35, "park"),
            (1, 0.55, "residence"),
            (2, 0.08, "shop"),
            (4, 0.02, "school"),
        )
    )
    places = generate_places(n_places, seed=seed, protection_model=mild)
    mobility = NetworkMobility(
        random_network(nodes=150, seed=seed + 1),
        count=n_units,
        seed=seed + 2,
    )
    return ScenarioWorld(
        "suburbia",
        places,
        mobility.initial_units(protection_range),
        record_stream(mobility, stream_length),
        mobility,
    )


def _directed_patrol(seed, n_places, n_units, protection_range, stream_length):
    """Uniform city, but the fleet patrols towards high-value places."""
    places = generate_places(n_places, seed=seed)
    hotspots = [p for p in places if p.required_protection >= 5]
    mobility = DirectedPatrolMobility(
        grid_network(rows=12, cols=12, seed=seed + 1),
        count=n_units,
        hotspots=hotspots,
        bias=0.6,
        seed=seed + 2,
    )
    return ScenarioWorld(
        "directed-patrol",
        places,
        mobility.initial_units(protection_range),
        record_stream(mobility, stream_length),
        mobility,
    )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "downtown",
            "clustered high-value core on a Manhattan grid",
            _downtown,
        ),
        Scenario(
            "old-town",
            "radial ring-and-spoke streets, clustered places",
            _old_town,
        ),
        Scenario(
            "suburbia",
            "uniform sprawl with mild protection requirements",
            _suburbia,
        ),
        Scenario(
            "directed-patrol",
            "fleet destinations biased towards banks and stations",
            _directed_patrol,
        ),
    )
}


def build_scenario(name: str, **kwargs) -> ScenarioWorld:
    """Build a named scenario (see :data:`SCENARIOS`)."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    return scenario.build(**kwargs)
