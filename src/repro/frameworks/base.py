"""Port model: what a framework+compiler combination can do.

A :class:`Port` encodes, per vendor, the properties §IV/§V identify as
performance-deciding:

- whether the toolchain targets the vendor at all (CUDA cannot target
  AMD, which is why its all-platform P is 0 by definition);
- the kernel-geometry policy: hand-tuned per device (CUDA/HIP/SYCL),
  left to the compiler default (OpenMP on NVIDIA), or pinned to the
  256 threads/block the profiler reports for PSTL;
- FP64 atomic codegen: native read-modify-write when the toolchain
  honours ``-munsafe-fp-atomics`` (or targets NVIDIA), otherwise a
  compare-and-swap loop;
- a multiplicative runtime-abstraction overhead;
- whether the port overlaps the aprod2 kernels on streams;
- sensitivity to near-capacity device-memory pressure;
- a sparse table of calibrated residual factors reproducing
  platform-and-size-specific observations of §V-B that the structural
  terms above do not generate on their own (each entry is annotated in
  :mod:`repro.frameworks.registry`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.gpu.atomics import AtomicMode
from repro.gpu.device import DeviceSpec, Vendor
from repro.gpu.kernel import (
    LaunchConfig,
    default_geometry,
    grid_for,
    tuned_geometry,
)


class UnsupportedPlatform(RuntimeError):
    """The port's toolchain cannot target this device's vendor."""


class GeometryPolicy(enum.Enum):
    """How a port chooses kernel launch geometry on a vendor."""

    TUNED = "tuned"              # hand-tuned per device (§IV)
    COMPILER_DEFAULT = "default"  # whatever the toolchain picks
    FIXED_256 = "fixed-256"       # PSTL: no geometry control (§V-B)


@dataclass(frozen=True)
class VendorSupport:
    """One port's behaviour on one vendor's devices."""

    compiler: str
    geometry: GeometryPolicy
    rmw_atomics: bool
    overhead: float
    unsafe_fp_atomics_flag: bool = False

    def __post_init__(self) -> None:
        if self.overhead < 1.0:
            raise ValueError(f"overhead must be >= 1, got {self.overhead}")

    @classmethod
    def from_config(cls, *, config: Mapping[str, Any]) -> "VendorSupport":
        """Build from a plain-data config mapping.

        The unified constructor signature every framework module uses:
        keyword-only ``config`` with canonical keys (``compiler``,
        ``geometry`` -- a :class:`GeometryPolicy` or its string value,
        ``rmw_atomics``, ``overhead``, ``unsafe_fp_atomics_flag``).
        """
        kwargs = dict(config)
        geometry = kwargs.get("geometry")
        if isinstance(geometry, str):
            kwargs["geometry"] = GeometryPolicy(geometry)
        return cls(**kwargs)

    def to_config(self) -> dict[str, Any]:
        """The canonical plain-data form (round-trips from_config)."""
        config: dict[str, Any] = {
            "compiler": self.compiler,
            "geometry": self.geometry.value,
            "rmw_atomics": self.rmw_atomics,
            "overhead": self.overhead,
        }
        if self.unsafe_fp_atomics_flag:
            config["unsafe_fp_atomics_flag"] = True
        return config


@dataclass(frozen=True)
class Port:
    """A framework+compiler combination of the study."""

    key: str
    framework: str
    support: dict[Vendor, VendorSupport]
    uses_streams: bool = True
    pressure_sensitivity: float = 0.5
    residuals: dict[tuple[str, int | None], float] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError(f"port {self.key!r} supports no vendor")
        if self.pressure_sensitivity < 0:
            raise ValueError("pressure_sensitivity must be >= 0")
        for factor in self.residuals.values():
            if factor <= 0:
                raise ValueError("residual factors must be positive")

    @classmethod
    def from_config(cls, *, config: Mapping[str, Any]) -> "Port":
        """Build a port from a plain-data config mapping.

        The one construction path every framework module routes
        through.  Canonical keys: ``key``, ``framework``, ``support``
        (vendor name -> :meth:`VendorSupport.from_config` mapping),
        ``uses_streams``, ``pressure_sensitivity``, ``residuals`` (a
        list of ``[device, size_gb_or_None, factor]`` triples).
        """
        kwargs = dict(config)
        support = {
            (vendor if isinstance(vendor, Vendor) else Vendor(vendor)):
            (vs if isinstance(vs, VendorSupport)
             else VendorSupport.from_config(config=vs))
            for vendor, vs in kwargs.pop("support", {}).items()
        }
        residuals_cfg = kwargs.pop("residuals", [])
        if isinstance(residuals_cfg, Mapping):
            residuals = dict(residuals_cfg)
        else:
            residuals = {
                (device, None if size is None else int(size)): factor
                for device, size, factor in residuals_cfg
            }
        return cls(support=support, residuals=residuals, **kwargs)

    def to_config(self) -> dict[str, Any]:
        """The canonical plain-data form (round-trips from_config)."""
        return {
            "key": self.key,
            "framework": self.framework,
            "support": {vendor.value: vs.to_config()
                        for vendor, vs in self.support.items()},
            "uses_streams": self.uses_streams,
            "pressure_sensitivity": self.pressure_sensitivity,
            "residuals": [[device, size, factor]
                          for (device, size), factor
                          in self.residuals.items()],
        }

    # ------------------------------------------------------------------
    def supports(self, device: DeviceSpec) -> bool:
        """True when the port's toolchain targets ``device``."""
        return device.vendor in self.support

    def vendor_support(self, device: DeviceSpec) -> VendorSupport:
        """The port's behaviour record on ``device``; raise if absent."""
        try:
            return self.support[device.vendor]
        except KeyError:
            raise UnsupportedPlatform(
                f"{self.key} cannot target {device.name} "
                f"({device.vendor.value})"
            ) from None

    def compiler(self, device: DeviceSpec) -> str:
        """Toolchain used on ``device``."""
        return self.vendor_support(device).compiler

    def atomic_mode(self, device: DeviceSpec) -> AtomicMode:
        """FP64 atomic codegen on ``device``."""
        return (
            AtomicMode.RMW
            if self.vendor_support(device).rmw_atomics
            else AtomicMode.CAS_LOOP
        )

    def overhead(self, device: DeviceSpec) -> float:
        """Runtime abstraction cost (multiplicative, >= 1)."""
        return self.vendor_support(device).overhead

    def tunable(self, device: DeviceSpec) -> bool:
        """True when the port sets its own kernel geometry on ``device``.

        Only :attr:`GeometryPolicy.TUNED` has a geometry to sweep:
        PSTL's fixed 256 threads/block and the compiler default of the
        tuning-oblivious ports (§V-B) are not the port's to choose.
        Raises :class:`UnsupportedPlatform` when the port cannot target
        ``device`` at all.
        """
        return self.vendor_support(device).geometry is GeometryPolicy.TUNED

    def geometry(
        self,
        device: DeviceSpec,
        n_work: int,
        *,
        atomic_region: bool = False,
        tuned: bool = True,
    ) -> LaunchConfig:
        """Launch geometry the port uses on ``device``.

        ``tuned=False`` forces the compiler-default geometry even for
        tunable ports (the ablation of §V-B's "up to 40%" claim).
        """
        policy = self.vendor_support(device).geometry
        if policy is GeometryPolicy.FIXED_256:
            return grid_for(n_work, 256)
        if policy is GeometryPolicy.COMPILER_DEFAULT or not tuned:
            return default_geometry(device, n_work)
        return tuned_geometry(device, n_work, atomic_region=atomic_region)

    def residual(self, device: DeviceSpec, size_gb: float | None) -> float:
        """Calibrated residual factor for (device, problem size).

        Size-specific entries are keyed by the integer GB label; a
        ``None``-sized entry applies at every size.  Factors multiply.
        """
        factor = self.residuals.get((device.name, None), 1.0)
        if size_gb is not None:
            factor *= self.residuals.get((device.name, int(size_gb)), 1.0)
        return factor

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key
