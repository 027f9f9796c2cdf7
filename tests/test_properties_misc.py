"""Cross-cutting property tests on the substrates.

These target the bookkeeping-heavy structures whose bugs would corrupt
monitors silently: the swap-remove paths, cell index and result version
of the maintained table, the page partitioning of the place store, and
the grid's linear encoding — each checked against a trivial model under
random operation sequences.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import MaintainedPlaces
from repro.geometry import Point, Rect
from repro.grid import GridPartition
from repro.model import Place
from repro.storage import PlaceStore
from repro.storage.placestore import CellArrays
from repro.workloads import generate_places


#: the k of each lockstep table in the table model test.
RESULT_KS = (0, 1, 3, 5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), ops=st.integers(20, 150))
def test_maintained_table_matches_dict_model(seed, ops):
    """Random insert/remove/move sequences agree with a plain dict of
    ``id -> (safety, cell)``, and an unchanged result version means an
    unchanged SK and top-k.

    One table per k of ``RESULT_KS`` runs the same steps, each read at
    its own k only (a read at another k hands out a new version).
    """
    rng = random.Random(seed)
    tables = {k: MaintainedPlaces() for k in RESULT_KS}
    last = {
        k: (table.result_version(k), table.sk(k), table.topk_ids(k))
        for k, table in tables.items()
    }
    model: dict[int, tuple[float, int]] = {}
    made: list[Place] = []

    def new_place() -> Place:
        made.append(Place(len(made), Point(rng.random(), rng.random()), 0))
        return made[-1]

    def move(old: Point, new: Point) -> None:
        # mirror one unit move on the model.
        for pid, (safety, cell) in model.items():
            loc = made[pid].location
            was = old.squared_distance_to(loc) <= 0.04
            now = new.squared_distance_to(loc) <= 0.04
            model[pid] = (safety + int(now) - int(was), cell)

    for _ in range(ops):
        action = rng.random()
        if action < 0.3 or not model:
            place = new_place()
            safety = float(rng.randint(-10, 10))
            cell = rng.randrange(4)
            for each in tables.values():
                each.insert(place, safety, cell)
            model[place.place_id] = (safety, cell)
        elif action < 0.45:
            # a cell access's band: the kept rows enter, the rest bound.
            places = [new_place() for _ in range(rng.randint(1, 6))]
            safeties = np.array([float(rng.randint(-10, 10)) for _ in places])
            cell = rng.randrange(4)
            sk = float(rng.randint(-6, 6))
            delta = rng.choice([0, 1, 3])
            kept = [
                (p, s)
                for p, s in zip(places, safeties.tolist())
                if s < sk + delta or s <= sk
            ]
            rest = [s for s in safeties.tolist() if not (s < sk + delta or s <= sk)]
            for each in tables.values():
                bound = each.insert_band(
                    places, CellArrays(places), safeties, cell, sk, delta
                )
                assert bound == min(rest, default=math.inf)
            for p, s in kept:
                model[p.place_id] = (s, cell)
        elif action < 0.55:
            # a cell access: the cell's rows leave and its band comes
            # back, often with the same (id, safety) rows.
            cell = rng.randrange(4)
            ids = [pid for pid, (_, owner) in model.items() if owner == cell]
            places = [made[pid] for pid in ids] + [
                new_place() for _ in range(rng.randint(0, 2))
            ]
            safeties = np.array(
                [model[pid][0] + rng.choice([0, 0, 0, -1, 1]) for pid in ids]
                + [float(rng.randint(-10, 10)) for _ in places[len(ids) :]]
            )
            sk = float(rng.randint(-6, 6))
            for each in tables.values():
                each.remove_cell(cell)
                each.insert_band(places, CellArrays(places), safeties, cell, sk, 1)
            for pid in ids:
                del model[pid]
            for p, value in zip(places, safeties.tolist()):
                if value < sk + 1:
                    model[p.place_id] = (value, cell)
        elif action < 0.65:
            victim = rng.choice(list(model))
            for each in tables.values():
                removed, safety = each.remove_id(victim)
                assert (removed.place_id, safety) == (victim, model[victim][0])
            del model[victim]
        elif action < 0.78 and len(model) > 3:
            # bulk removal of one cell's rows.
            cell = rng.randrange(4)
            ids = [pid for pid, (_, owner) in model.items() if owner == cell]
            expected = min((model[pid][0] for pid in ids), default=math.inf)
            for each in tables.values():
                assert each.remove_cell(cell) == expected
            for pid in ids:
                del model[pid]
        elif action < 0.9:
            old = Point(rng.random(), rng.random())
            new = Point(rng.random(), rng.random())
            move(old, new)
            for each in tables.values():
                each.apply_unit_move(old, new, radius=0.2)
        else:
            moves = [
                [rng.random() for _ in range(4)] for _ in range(rng.randint(1, 4))
            ]
            for ox, oy, nx, ny in moves:
                move(Point(ox, oy), Point(nx, ny))
            columns = [np.array(column) for column in zip(*moves)]
            for each in tables.values():
                each.apply_unit_moves(*columns, 0.2)
        rows = {pid: [pid, safety, cell] for pid, (safety, cell) in model.items()}
        ranked = sorted((safety, pid) for pid, (safety, _) in model.items())
        for k, each in tables.items():
            assert sorted(each.export_rows()) == sorted(rows.values())
            version, sk, ids = each.result_version(k), each.sk(k), each.topk_ids(k)
            assert ids == [pid for _, pid in ranked[:k]]
            if k <= 0:
                assert sk == -math.inf
            else:
                assert sk == (ranked[k - 1][0] if len(ranked) >= k else math.inf)
            if version == last[k][0]:
                assert (sk, ids) == last[k][1:]
            last[k] = (version, sk, ids)


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
