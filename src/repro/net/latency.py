"""RTT model.

Round-trip times are derived from great-circle distance: a per-hop base
(processing, last-mile) plus a propagation term calibrated so the distances
reported in the paper's Table 2 land in the right regime — a same-region hop
is tens of milliseconds, cross-continent is ~150 ms, and an intercontinental
detour (e.g. to South Africa from Ohio) approaches 300 ms.

The model is deterministic given (distance, jitter seed); experiments that
ping repeatedly (Table 2 does 8 pings and averages) get reproducible jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: Base RTT for any exchange (stack traversal, last mile), milliseconds.
BASE_RTT_MS = 8.0
#: Milliseconds of round-trip per kilometre of great-circle distance.  Fibre
#: propagation is ~0.01 ms/km round trip; routing indirectness roughly
#: doubles it.
MS_PER_KM = 0.021


@dataclass
class LatencyModel:
    """Maps distances to RTTs, with optional multiplicative jitter."""

    base_ms: float = BASE_RTT_MS
    ms_per_km: float = MS_PER_KM
    jitter_fraction: float = 0.05

    def rtt_ms(self, distance_km: float,
               rng: Optional[random.Random] = None) -> float:
        """RTT in milliseconds for a path spanning ``distance_km``."""
        if distance_km < 0:
            raise ValueError("negative distance")
        rtt = self.base_ms + distance_km * self.ms_per_km
        if rng is not None and self.jitter_fraction:
            rtt *= 1.0 + rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return rtt


#: Shared default model.
DEFAULT_LATENCY = LatencyModel()
