"""Timeline traces of modeled iterations (the nsys-style view).

Builds an event timeline -- per-kernel start/end on numbered streams --
for one modeled LSQR iteration, and exports it in the Chrome trace
format (``chrome://tracing`` / Perfetto), the workflow the paper's
authors used with ``nsys`` to verify where the iteration time goes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.frameworks.base import Port
from repro.frameworks.executor import _launch_sequence
from repro.gpu.device import DeviceSpec
from repro.system.structure import SystemDims


@dataclass(frozen=True)
class TraceEvent:
    """One kernel execution on the timeline (seconds)."""

    name: str
    stream: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Event end time."""
        return self.start + self.duration


@dataclass
class IterationTrace:
    """Timeline of one modeled LSQR iteration."""

    port_key: str
    device_name: str
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """End of the last event."""
        return max((e.end for e in self.events), default=0.0)

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON document (microsecond timestamps)."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": e.name,
                    "cat": "kernel",
                    "ph": "X",
                    "ts": e.start * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": 0,
                    "tid": e.stream,
                    "args": {"port": self.port_key,
                             "device": self.device_name},
                }
                for e in self.events
            ],
        }

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1))
        return path

    def record_to(self, telemetry) -> None:
        """Forward the timeline into a :class:`~repro.obs.Telemetry`.

        Each event becomes one ``trace.kernel_launches`` counter tick
        and one ``trace.kernel_time_s`` histogram observation, labeled
        with the kernel name and this trace's port; the makespan lands
        in a ``trace.makespan_s`` gauge.  Use
        ``to_chrome_trace()["traceEvents"]`` as ``extra_events`` of
        :func:`repro.obs.export.to_chrome_trace` to merge the timeline into
        the span trace for Perfetto.
        """
        for e in self.events:
            telemetry.counter("trace.kernel_launches", kernel=e.name,
                              port=self.port_key).inc()
            telemetry.histogram("trace.kernel_time_s", kernel=e.name,
                                port=self.port_key).observe(e.duration)
        telemetry.gauge("trace.makespan_s", port=self.port_key,
                        device=self.device_name).set(self.makespan)


def trace_iteration(
    port: Port,
    device: DeviceSpec,
    dims: SystemDims,
    *,
    tuned: bool = True,
) -> IterationTrace:
    """Build the timeline of one modeled iteration.

    A layout of the executor's one launch sequence: aprod1 kernels back
    to back on stream 0; aprod2 kernels on their streams, serialized on
    the shared memory system exactly as
    :meth:`repro.gpu.stream.StreamSchedule.makespan` prices them (each
    kernel's data phase starts when the previous kernel's data phase
    ends, regardless of stream); the vector-op bundle closes the
    iteration.
    """
    seq = _launch_sequence(
        port, device, dims,
        lambda atomic: port.geometry(device, dims.n_obs,
                                     atomic_region=atomic, tuned=tuned),
    )
    trace = IterationTrace(port_key=port.key, device_name=device.name)

    clock = 0.0
    for a in seq.aprod1:
        trace.events.append(TraceEvent(name=a.work.name, stream=0,
                                       start=clock,
                                       duration=a.timing.total))
        clock += a.timing.total

    # aprod2: streams overlap launches; the data phases serialize.
    aprod2_start = data_clock = clock
    for a in seq.aprod2:
        t = a.timing
        duration = max(t.memory, t.compute) + t.atomics
        trace.events.append(
            TraceEvent(name=a.work.name, stream=a.stream,
                       start=data_clock, duration=duration)
        )
        data_clock += duration
    clock = max(data_clock, aprod2_start + seq.aprod2_makespan)

    trace.events.append(TraceEvent(name=seq.vector.work.name, stream=0,
                                   start=clock,
                                   duration=seq.vector.timing.total))
    return trace
