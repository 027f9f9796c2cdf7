"""The turnkey simulation shell."""

import pytest

from repro.core import BasicCTUP, CTUPConfig, OptCTUP
from repro.shard import ShardedMonitor
from repro.sim import Simulation
from repro.workloads import RandomWalkMobility, generate_places, generate_units


@pytest.fixture
def live_sim(small_config, small_places, small_units):
    monitor = OptCTUP(small_config, small_places, small_units)
    mobility = RandomWalkMobility(small_units, step=0.03, seed=77)
    return Simulation(monitor, mobility, audit_every=50)


class TestRun:
    def test_run_produces_outcome(self, live_sim):
        outcome = live_sim.run(updates=120)
        assert outcome.updates == 120
        assert outcome.clean, outcome.audit_problems[:3]
        assert len(outcome.final_topk) == live_sim.monitor.config.k
        assert outcome.final_sk == outcome.final_topk[-1].safety
        assert outcome.summary.updates == 120

    def test_changes_collected(self, live_sim):
        outcome = live_sim.run(updates=150)
        assert outcome.changes == live_sim.changes
        # a 150-update random walk always moves the result at least once.
        assert outcome.changes

    def test_resume_accumulates(self, live_sim):
        first = live_sim.run(updates=40)
        second = live_sim.run(updates=40)
        assert first.updates == 40
        assert second.updates == 40
        assert second.summary.updates == 80  # the timeline keeps growing

    def test_invalid_updates(self, live_sim):
        with pytest.raises(ValueError):
            live_sim.run(updates=0)

    def test_negative_audit_every(self, small_config, small_places, small_units):
        monitor = OptCTUP(small_config, small_places, small_units)
        mobility = RandomWalkMobility(small_units, step=0.03, seed=1)
        with pytest.raises(ValueError):
            Simulation(monitor, mobility, audit_every=-1)

    def test_works_with_basic_monitor(
        self, small_config, small_places, small_units
    ):
        monitor = BasicCTUP(small_config, small_places, small_units)
        mobility = RandomWalkMobility(small_units, step=0.03, seed=5)
        sim = Simulation(monitor, mobility, audit_every=60)
        outcome = sim.run(updates=60)
        assert outcome.clean


class TestFromScenario:
    @pytest.mark.parametrize("name", ["downtown", "suburbia"])
    def test_scenario_simulation(self, name):
        sim = Simulation.from_scenario(
            name, k=5, n_places=600, n_units=15, seed=4, audit_every=80
        )
        outcome = sim.run(updates=160)
        assert outcome.clean
        assert outcome.updates == 160

    def test_granularity_auto_tuned(self):
        sim = Simulation.from_scenario(
            "downtown", n_places=600, n_units=10, seed=1
        )
        # 600 places at range 0.1: the population cap keeps it below 10.
        assert sim.monitor.config.granularity < 10

    def test_scheme_and_shards_by_name(self):
        world = dict(k=4, n_places=400, n_units=10, seed=2, scheme="basic")
        sim = Simulation.from_scenario("suburbia", **world)
        assert isinstance(sim.monitor, BasicCTUP)
        sharded = Simulation.from_scenario("suburbia", shards=2, **world)
        assert isinstance(sharded.monitor, ShardedMonitor)
        assert {type(s.monitor) for s in sharded.monitor.shards} == {BasicCTUP}
        outcome = sim.run(updates=50)
        assert outcome.updates == 50
        assert sharded.run(updates=50).final_topk == outcome.final_topk
