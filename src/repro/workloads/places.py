"""Place-set generation.

The paper's introduction motivates skewed protection requirements: most
places (residences) need one nearby unit, some (malls, transit stations)
need a few, and rare high-value targets (banks, embassies) need many.
The paper itself only says places are "randomly generated", so the
distribution is an explicit, documented knob here (see DESIGN.md §5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.geometry import Point, Rect
from repro.model import Place

#: default requirement skew: (required protection, weight, label).
#:
#: The shape matters more than the exact numbers: the mass of places
#: needs little protection (and is comfortably safe under a patrolling
#: fleet), while rare high-value targets demand far more than the fleet
#: can routinely provide. That long sparse lower tail of safeties is
#: what the paper's own examples depict (Fig. 1: one place at -8 among
#: neighbours at -1..0) and what makes ``SK`` an extreme-value statistic
#: rather than a bulk quantile. With ~150 units of range 0.1 on the unit
#: square the actual protection averages about 4.7, so residences sit
#: around +4 while embassies sit around -11.
_DEFAULT_TIERS: tuple[tuple[int, float, str], ...] = (
    (0, 0.20, "park"),
    (1, 0.55, "residence"),
    (2, 0.12, "shop"),
    (3, 0.06, "school"),
    (5, 0.035, "mall"),
    (7, 0.02, "station"),
    (9, 0.01, "office-tower"),
    (12, 0.004, "bank"),
    (16, 0.001, "embassy"),
)


@dataclass(frozen=True)
class RequiredProtectionModel:
    """A discrete distribution over required-protection values."""

    tiers: tuple[tuple[int, float, str], ...] = _DEFAULT_TIERS

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier is required")
        if any(weight <= 0 for _, weight, _ in self.tiers):
            raise ValueError("tier weights must be positive")
        if any(rp < 0 for rp, _, _ in self.tiers):
            raise ValueError("required protections must be >= 0")

    @classmethod
    def constant(cls, required: int, label: str = "place") -> "RequiredProtectionModel":
        """Every place requires the same protection."""
        return cls(tiers=((required, 1.0, label),))

    @classmethod
    def uniform(cls, low: int, high: int) -> "RequiredProtectionModel":
        """Required protections uniform over ``low..high`` inclusive."""
        if low > high:
            raise ValueError("low must not exceed high")
        return cls(
            tiers=tuple((rp, 1.0, f"tier-{rp}") for rp in range(low, high + 1))
        )

    def sample(self, rng: random.Random) -> tuple[int, str]:
        """Draw one (required protection, label) pair."""
        weights = [weight for _, weight, _ in self.tiers]
        rp, _, label = rng.choices(self.tiers, weights=weights, k=1)[0]
        return rp, label


def uniform_points(n: int, rng: random.Random, space: Rect) -> list[Point]:
    """``n`` points uniform over ``space``."""
    return [
        Point(
            rng.uniform(space.xmin, space.xmax),
            rng.uniform(space.ymin, space.ymax),
        )
        for _ in range(n)
    ]


def clustered_points(
    n: int,
    rng: random.Random,
    space: Rect,
    clusters: int = 8,
    spread: float = 0.05,
) -> list[Point]:
    """``n`` points around ``clusters`` gaussian hot spots.

    Models a downtown-heavy city; points falling outside the space are
    clamped to it so every place stays monitorable.
    """
    if clusters <= 0:
        raise ValueError("need at least one cluster")
    centers = uniform_points(clusters, rng, space)
    points = []
    for _ in range(n):
        center = rng.choice(centers)
        p = Point(
            rng.gauss(center.x, spread * space.width),
            rng.gauss(center.y, spread * space.height),
        )
        points.append(space.clamp_point(p))
    return points


def generate_places(
    n: int,
    seed: int = 0,
    space: Rect = Rect(0.0, 0.0, 1.0, 1.0),
    placement: str = "uniform",
    protection_model: RequiredProtectionModel | None = None,
    id_offset: int = 0,
) -> list[Place]:
    """Generate a reproducible place set.

    Parameters mirror Table III's knobs: ``n`` is ``|P|``; ``placement``
    is ``"uniform"`` (the paper's setting) or ``"clustered"``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    model = protection_model or RequiredProtectionModel()
    if placement == "uniform":
        points = uniform_points(n, rng, space)
    elif placement == "clustered":
        points = clustered_points(n, rng, space)
    else:
        raise ValueError(f"unknown placement {placement!r}")
    places = []
    for i, point in enumerate(points):
        rp, label = model.sample(rng)
        places.append(
            Place(
                place_id=id_offset + i,
                location=point,
                required_protection=rp,
                kind=label,
            )
        )
    return places
