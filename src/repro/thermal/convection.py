"""Flow-dependent convective conductances.

Forced-convection heat transfer coefficients in turbulent internal flow
scale roughly with the 0.8 power of velocity (Dittus-Boelter / Colburn
correlations). Rather than resolving boundary layers, each component is
given a *reference* conductance at a *reference* flow — obtainable from
vendor heat-sink data or one calibration run — and the solver rescales it
with the instantaneous operating flow:

    G(Q) = G_ref * (Q / Q_ref)^n        (n ~= 0.8)

A configurable floor models the natural-convection/radiation path that
remains when forced flow collapses (e.g. heavy blockage), preventing the
unphysical conclusion that a blocked server exchanges no heat at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Default velocity exponent for turbulent forced convection.
DEFAULT_FLOW_EXPONENT = 0.8

#: Default fraction of the reference conductance retained at zero flow.
DEFAULT_STAGNANT_FRACTION = 0.05


def flow_scaled_conductance(
    reference_conductance_w_per_k: float,
    flow_m3_s: float,
    reference_flow_m3_s: float,
    exponent: float = DEFAULT_FLOW_EXPONENT,
    stagnant_fraction: float = DEFAULT_STAGNANT_FRACTION,
) -> float:
    """Convective conductance at an operating flow.

    Clamps to a stagnant floor so conductance stays positive as flow goes to
    zero.
    """
    # In-range tests, so that NaN (every comparison false) fails them.
    if not 0 < reference_conductance_w_per_k < math.inf:
        raise ConfigurationError(
            f"reference conductance must be positive and finite, got "
            f"{reference_conductance_w_per_k}"
        )
    if not 0 < reference_flow_m3_s < math.inf:
        raise ConfigurationError(
            f"reference flow must be positive and finite, got "
            f"{reference_flow_m3_s}"
        )
    if not 0 <= flow_m3_s < math.inf:
        raise ConfigurationError(
            f"flow must be non-negative and finite, got {flow_m3_s}"
        )
    if not 0 <= exponent < math.inf:
        raise ConfigurationError(
            f"flow exponent must be non-negative and finite, got {exponent}"
        )
    if not 0.0 <= stagnant_fraction <= 1.0:
        raise ConfigurationError(
            f"stagnant fraction must be in [0, 1], got {stagnant_fraction}"
        )
    scaled = reference_conductance_w_per_k * (
        (flow_m3_s / reference_flow_m3_s) ** exponent
    )
    floor = stagnant_fraction * reference_conductance_w_per_k
    return max(scaled, floor)


@dataclass(frozen=True)
class ConvectiveCoupling:
    """Convective link between a thermal node and an air stream segment.

    Parameters
    ----------
    node_name:
        Name of the thermal network node exchanging heat with the segment.
    reference_conductance_w_per_k:
        Conductance (h * A) at the reference flow.
    reference_flow_m3_s:
        Flow at which the reference conductance was characterized.
    exponent:
        Velocity exponent (0.8 for turbulent channels; lower for laminar).
    stagnant_fraction:
        Conductance floor as a fraction of the reference value.
    """

    node_name: str
    reference_conductance_w_per_k: float
    reference_flow_m3_s: float
    exponent: float = DEFAULT_FLOW_EXPONENT
    stagnant_fraction: float = DEFAULT_STAGNANT_FRACTION

    def __post_init__(self) -> None:
        # Delegate range validation to the function by evaluating once at
        # the reference point.
        flow_scaled_conductance(
            self.reference_conductance_w_per_k,
            self.reference_flow_m3_s,
            self.reference_flow_m3_s,
            self.exponent,
            self.stagnant_fraction,
        )

    def conductance_at_flow(self, flow_m3_s: float) -> float:
        """Conductance (W/K) at an operating flow."""
        return flow_scaled_conductance(
            self.reference_conductance_w_per_k,
            flow_m3_s,
            self.reference_flow_m3_s,
            self.exponent,
            self.stagnant_fraction,
        )
