"""Fault injection and recovery for the distributed solver.

Chaos engineering over the in-process SPMD simulation: a
deterministic, seed-driven :class:`FaultPlan` injects communication
drops, timeouts, stragglers, payload corruption and rank death into
the solver's reduction epochs; a :class:`RetryPolicy` bounds how each
epoch fights back; :class:`ResilientDistributedLSQR` recovers what
retry cannot -- rolling back to validated checkpoints and
re-decomposing onto surviving ranks.  Its checkpoints are the
:class:`~repro.core.engine.EngineState` archive every driver writes
and resumes.  See ``docs/resilience.md``.
"""

from repro.resilience.faults import (
    CommDropped,
    CommTimeout,
    CorruptionDetected,
    FaultError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PayloadCorrupted,
    RankDied,
    TransientCommFault,
    UnrecoverableFault,
)
from repro.resilience.injection import ChaosStats, ResilientCommReduction
from repro.resilience.policy import RetryPolicy
from repro.resilience.recovery import (
    ResilienceReport,
    ResilientDistributedLSQR,
)

__all__ = [
    "ChaosStats",
    "CommDropped",
    "CommTimeout",
    "CorruptionDetected",
    "FaultError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "PayloadCorrupted",
    "RankDied",
    "ResilienceReport",
    "ResilientCommReduction",
    "ResilientDistributedLSQR",
    "RetryPolicy",
    "TransientCommFault",
    "UnrecoverableFault",
]
