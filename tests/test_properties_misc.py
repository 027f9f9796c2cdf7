"""Cross-cutting property tests on the substrates.

These target the bookkeeping-heavy structures whose bugs would corrupt
monitors silently: the swap-remove/compaction paths of the maintained
table, the page partitioning of the place store, and the grid's linear
encoding — each checked against a trivial model under random operation
sequences.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import MaintainedPlaces
from repro.geometry import Point, Rect
from repro.grid import GridPartition
from repro.index import RTree
from repro.model import Place
from repro.storage import PlaceStore
from repro.workloads import generate_places


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), ops=st.integers(20, 150))
def test_maintained_table_matches_dict_model(seed, ops):
    """Random insert/remove/move sequences agree with a plain dict."""
    rng = random.Random(seed)
    table = MaintainedPlaces()
    model: dict[int, float] = {}
    next_id = 0
    for _ in range(ops):
        action = rng.random()
        if action < 0.5 or not model:
            place = Place(next_id, Point(rng.random(), rng.random()), 0)
            safety = float(rng.randint(-10, 10))
            cell = rng.randrange(4)
            table.insert(place, safety, cell)
            model[next_id] = safety
            next_id += 1
        elif action < 0.75:
            victim = rng.choice(list(model))
            table.remove_id(victim)
            del model[victim]
        elif action < 0.9 and len(model) > 3:
            # bulk removal of one cell's rows.
            cell = rng.randrange(4)
            ids = [
                pid for pid in model if table._cell[table._row_of[pid]] == cell
            ]
            removed = table.remove_cell(cell)
            assert removed == min((model[pid] for pid in ids), default=math.inf)
            for pid in ids:
                del model[pid]
        else:
            old = Point(rng.random(), rng.random())
            new = Point(rng.random(), rng.random())
            # mirror the move on the model.
            for pid in model:
                loc = table.place_of(pid).location
                was = old.squared_distance_to(loc) <= 0.04
                now = new.squared_distance_to(loc) <= 0.04
                model[pid] += int(now) - int(was)
            table.apply_unit_move(old, new, radius=0.2)
        assert table.safeties_snapshot() == model
        if model:
            assert table.min_safety() == min(model.values())
            assert table.sk(1) == min(model.values())
        else:
            assert table.min_safety() == math.inf


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 1000),
    granularity=st.integers(1, 9),
    page=st.integers(1, 32),
)
def test_place_store_partitions_exactly(n, seed, granularity, page):
    """read_cell over all occupied cells is a partition of the input."""
    grid = GridPartition.unit_square(granularity)
    places = generate_places(n, seed=seed)
    store = PlaceStore(grid, places, page_capacity=page)
    seen: set[int] = set()
    for cell in store.occupied_cells():
        loaded = store.read_cell(cell)
        assert len(loaded) == store.cell_place_count(cell)
        for place in loaded:
            assert grid.cell_of(place.location) == cell
            assert place.place_id not in seen
            seen.add(place.place_id)
    assert seen == {p.place_id for p in places}


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 15), ny=st.integers(1, 15))
def test_grid_linear_encoding_is_a_bijection(nx, ny):
    grid = GridPartition(Rect(0.0, 0.0, 1.0, 1.0), nx, ny)
    codes = [grid.linear(cell) for cell in grid.all_cells()]
    assert sorted(codes) == list(range(nx * ny))
    for cell in grid.all_cells():
        assert grid.from_linear(grid.linear(cell)) == cell


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 500),
    fanout=st.integers(2, 24),
)
def test_rtree_structural_invariants_all_fanouts(n, seed, fanout):
    places = generate_places(n, seed=seed)
    tree = RTree(places, fanout=fanout)
    assert len(tree) == n
    total = 0
    for node in tree.iter_nodes():
        if node.is_leaf:
            total += len(node.places)
            assert 1 <= len(node.places) <= fanout
            for place in node.places:
                assert node.mbr.contains_point(place.location)
        else:
            assert 1 <= len(node.children) <= fanout
            for child in node.children:
                assert node.mbr.contains_rect(child.mbr)
                assert node.max_required >= child.max_required
    assert total == n
