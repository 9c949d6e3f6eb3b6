"""Server-level thermal simulation substrate.

This package stands in for the ANSYS Icepak CFD model the paper uses
(Section 3): a lumped thermal-RC network for the solid components, a
quasi-steady airflow network (fan curve against system impedance, with a
blockage model for grilles and wax boxes), and PCM nodes integrated by the
enthalpy method.

The model captures exactly what the paper's cluster-scale study consumes
from Icepak: transient temperatures near the wax, outlet/CPU temperature as
a function of airflow blockage, and lumped wax melting characteristics.
"""

from repro.thermal.airflow import (
    AirPath,
    AirSegment,
    FanBank,
    FanCurve,
    SystemImpedance,
    blockage_impedance_coefficient,
    operating_flow,
)
from repro.thermal.convection import ConvectiveCoupling, flow_scaled_conductance
from repro.thermal.network import (
    BoundaryNode,
    CapacitiveNode,
    Conductance,
    PCMNode,
    ThermalNetwork,
)
from repro.thermal.solver import TransientResult, simulate_transient
from repro.thermal.steady_state import solve_steady_state

__all__ = [
    "AirPath",
    "AirSegment",
    "FanBank",
    "FanCurve",
    "SystemImpedance",
    "blockage_impedance_coefficient",
    "operating_flow",
    "ConvectiveCoupling",
    "flow_scaled_conductance",
    "BoundaryNode",
    "CapacitiveNode",
    "Conductance",
    "PCMNode",
    "ThermalNetwork",
    "TransientResult",
    "simulate_transient",
    "solve_steady_state",
]
