"""The threshold variant (§VII, third future-work direction).

Instead of the k *least safe* places, monitor **all** places whose
safety is below a fixed threshold τ. Structurally this is OptCTUP with
``SK`` pinned to τ: a cell needs accessing exactly when its bound falls
below τ, the Δ slack works unchanged, and the answer is every maintained
place with ``safety < τ``. Because τ never moves, the threshold monitor
is even better behaved than the top-k one — no SK drift means cells are
only ever touched by genuine bound decay.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.config import CTUPConfig
from repro.core.monitor import CTUPMonitor
from repro.core.opt import OptCTUP
from repro.core.topk import tie_key
from repro.model import Place, SafetyRecord, Unit


class ThresholdCTUP(OptCTUP):
    """Continuously monitor every place with ``safety < tau``."""

    name = "threshold"

    STATE_FIELDS = ("_tau",)

    def __init__(
        self,
        config: CTUPConfig,
        places: Sequence[Place],
        units: Iterable[Unit],
        tau: float,
    ) -> None:
        super().__init__(config, places, units)
        self._tau = float(tau)

    @property
    def tau(self) -> float:
        """The monitoring threshold."""
        return self._tau

    def sk(self) -> float:
        """The fixed threshold plays SK's role everywhere."""
        return self._tau

    def _running_sk(self, scratch: list[np.ndarray]) -> float:
        return self._tau

    def unsafe_places(self) -> list[SafetyRecord]:
        """All places with ``safety < tau``, least safe first."""
        result = [
            SafetyRecord(self.maintained.place_of(pid), safety)
            for pid, safety in self.maintained.safeties_snapshot().items()
            if safety < self._tau
        ]
        result.sort(key=lambda r: tie_key(r.safety, r.place_id))
        return result

    def top_k(self) -> list[SafetyRecord]:
        """The monitored set (alias so the common contract still works).

        Note the result size is *not* k here — it is however many places
        are currently below the threshold.
        """
        return self.unsafe_places()

    # OptCTUP reads its ids off the maintained top-k, which is not this
    # scheme's result: derive them from top_k() like every other scheme.
    topk_ids = CTUPMonitor.topk_ids

    # -- checkpointing ----------------------------------------------------

    def _export_scheme_state(self) -> dict[str, Any]:
        state = super()._export_scheme_state()
        state["tau"] = self._tau
        return state

    def _restore_scheme_state(self, fields: Mapping[str, Any]) -> None:
        if float(fields["tau"]) != self._tau:
            raise ValueError(
                "snapshot threshold does not match the constructed monitor"
            )
        super()._restore_scheme_state(fields)
