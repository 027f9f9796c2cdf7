"""Extensions: two of the paper's future-work directions (§VII).

1. :mod:`repro.ext.decay` — protection as a decaying function of distance;
2. :mod:`repro.ext.threshold` — monitor *all* places below a safety
   threshold instead of the top-k.
"""

from repro.ext.threshold import ThresholdCTUP
from repro.ext.decay import DecayCTUP, DecayModel, linear_decay, step_decay

__all__ = [
    "ThresholdCTUP",
    "DecayCTUP",
    "DecayModel",
    "linear_decay",
    "step_decay",
]
