"""Fault injection and recovery for the distributed solver.

Chaos engineering over the in-process SPMD simulation: a
deterministic, seed-driven :class:`~repro.resilience.faults.FaultPlan`
injects communication drops, timeouts, stragglers, payload corruption
and rank death into the solver's reduction epochs; a
:class:`~repro.resilience.policy.RetryPolicy` bounds how each epoch
fights back; :class:`~repro.resilience.recovery.ResilientDistributedLSQR`
recovers what retry cannot -- rolling back to validated checkpoints
and re-decomposing onto surviving ranks.  Its checkpoints are the
:class:`~repro.core.engine.EngineState` archive every driver writes
and resumes.  See ``docs/resilience.md``.
"""
