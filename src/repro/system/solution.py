"""Sectioned views of the unknown vector.

The solution of the AVU-GSR system concatenates four physically
distinct parameter groups.  :class:`SolutionSections` gives named,
zero-copy access to them, plus the per-star astrometric table used by
the validation harness and the AGIS cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.system.structure import ASTRO_PARAMS_PER_STAR, SystemDims

#: Names of the five astrometric parameters per star, in storage order.
ASTRO_PARAM_NAMES = ("ra", "dec", "parallax", "mu_ra", "mu_dec")


@dataclass(frozen=True)
class SolutionSections:
    """Zero-copy views of one unknown-space vector, by section.

    Attributes
    ----------
    astrometric:
        ``(n_stars * 5,)`` view of the astrometric section.
    attitude:
        ``(3 * n_deg_freedom_att,)`` view of the attitude section.
    instrumental:
        ``(n_instr_params,)`` view of the instrumental section.
    global_:
        ``(n_glob_params,)`` view of the global section.
    dims:
        The originating dimensions.
    """

    astrometric: np.ndarray
    attitude: np.ndarray
    instrumental: np.ndarray
    global_: np.ndarray
    dims: SystemDims

    def per_star(self) -> np.ndarray:
        """Astrometric parameters as an ``(n_stars, 5)`` table."""
        return self.astrometric.reshape(self.dims.n_stars,
                                        ASTRO_PARAMS_PER_STAR)

    def astro_param(self, name: str) -> np.ndarray:
        """One astrometric parameter across all stars, ``(n_stars,)``.

        ``name`` is one of :data:`ASTRO_PARAM_NAMES`.
        """
        try:
            j = ASTRO_PARAM_NAMES.index(name)
        except ValueError:
            raise KeyError(
                f"unknown astrometric parameter {name!r}; "
                f"expected one of {ASTRO_PARAM_NAMES}"
            ) from None
        return self.per_star()[:, j]

    def attitude_axes(self) -> np.ndarray:
        """Attitude coefficients as an ``(3, n_deg_freedom_att)`` table."""
        return self.attitude.reshape(3, self.dims.n_deg_freedom_att)

    @property
    def ppn_gamma(self) -> float | None:
        """The global PPN-gamma correction, or None when disabled."""
        return float(self.global_[0]) if self.global_.size else None


def split_solution(x: np.ndarray, dims: SystemDims) -> SolutionSections:
    """Split a full unknown vector into its four sections (views)."""
    if x.shape != (dims.n_params,):
        raise ValueError(
            f"x has shape {x.shape}, expected ({dims.n_params},)"
        )
    s = dims.section_slices()
    return SolutionSections(
        astrometric=x[s["astrometric"]],
        attitude=x[s["attitude"]],
        instrumental=x[s["instrumental"]],
        global_=x[s["global"]],
        dims=dims,
    )


def join_sections(sections: SolutionSections) -> np.ndarray:
    """Concatenate sections back into one unknown vector (copy)."""
    return np.concatenate([
        sections.astrometric,
        sections.attitude,
        sections.instrumental,
        sections.global_,
    ])
