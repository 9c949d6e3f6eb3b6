"""Exception hierarchy for the thermal time shifting library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A model was configured with physically or logically invalid inputs.

    Examples: negative heat capacity, a melting range with liquidus below
    solidus, a fan curve with non-positive free-delivery flow.
    """


class NetworkError(ReproError):
    """A thermal network is malformed (unknown node, duplicate name, ...)."""


class SolverError(ReproError):
    """A transient or steady-state solve failed to converge."""


class WorkloadError(ReproError):
    """A workload trace is malformed (empty, negative load, unsorted time)."""


class SimulationError(ReproError):
    """The datacenter simulator reached an inconsistent state."""


class FaultError(ReproError):
    """A fault schedule is malformed or a fault cannot be injected."""


class ControlError(ReproError):
    """A control loop, planner, or tournament was misconfigured, or a
    tournament bundle is malformed."""


class ExperimentError(ReproError):
    """An experiment was requested that does not exist or cannot run."""


class RunnerError(ReproError):
    """A parallel sweep was misconfigured or one of its tasks raised."""
