"""JSON codecs for the configuration half of a snapshot document.

Structure codecs live next to the structures they encode (cell-state
tables in :mod:`repro.grid.cellstate`, the maintained table and DecHash
on their classes); this module only covers the monitor configuration,
which no single structure owns.

Values pass through without lossy conversion: CPython's JSON round-trips
``float64`` exactly (shortest-repr encoding), so a decoded config is
``==`` to the encoded one bit for bit.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.config import CTUPConfig
from repro.geometry import Rect


def encode_config(config: CTUPConfig) -> dict[str, Any]:
    """A JSON-codable document holding every ``CTUPConfig`` field."""
    space = config.space
    return {
        "k": config.k,
        "delta": config.delta,
        "protection_range": config.protection_range,
        "granularity": config.granularity,
        "space": [space.xmin, space.ymin, space.xmax, space.ymax],
        "use_doo": config.use_doo,
        "page_capacity": config.page_capacity,
        "buffer_pages": config.buffer_pages,
    }


def decode_config(data: Mapping[str, Any]) -> CTUPConfig:
    """Inverse of :func:`encode_config`.

    Keys of retired fields are ignored, so a document written before a
    field was deleted still decodes.
    """
    xmin, ymin, xmax, ymax = data["space"]
    return CTUPConfig(
        k=data["k"],
        delta=data["delta"],
        protection_range=data["protection_range"],
        granularity=data["granularity"],
        space=Rect(xmin, ymin, xmax, ymax),
        use_doo=data["use_doo"],
        page_capacity=data["page_capacity"],
        buffer_pages=data["buffer_pages"],
    )
