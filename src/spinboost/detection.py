"""Gaussian-kernel detector model and the min-to-max detection ratio.

The detector responds to the particle's presence, not its spin: the
probability of a count with the detector centered at y_c is the density
convolved with a normalized Gaussian kernel of width w. Widths are bounded
below by the Compton wavelength (= 1 in internal units) because the particle
cannot be localized more sharply than that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .wavefunction import Density

__all__ = [
    "DetectorSpec",
    "RatioResult",
    "RatioReport",
    "SignalingReport",
    "detection_probability",
    "detection_curve",
    "detection_ratio",
    "small_velocity_approx",
    "ratio_report",
    "signaling_discriminator",
]

_CURVE_CHUNK = 256


@dataclass(frozen=True)
class DetectorSpec:
    """Gaussian kernel exp(-y**2 / w**2), normalized to unit integral."""

    w: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w) and self.w >= 1.0):
            raise ValueError(
                f"detector width must be >= 1 Compton wavelength, got {self.w!r}"
            )
        if self.w < 1.05:
            warnings.warn(
                f"detector width {self.w} is within 5% of the localization limit",
                stacklevel=2,
            )

    def kernel(self, y: np.ndarray) -> np.ndarray:
        return np.exp(-((y / self.w) ** 2)) / (self.w * math.sqrt(math.pi))


@dataclass(frozen=True)
class RatioResult:
    """Min-to-max detection ratio of one density curve."""

    ratio: float
    peak_location: float
    prob_origin: float
    prob_peak: float


@dataclass(frozen=True)
class RatioReport:
    """Paired ratios for the two measurement bases plus their small-velocity
    approximants."""

    r_psi: float
    r_phi: float
    ratio_of_ratios: float
    approx_r_phi: float
    approx_ratio: float
    y_m: float


@dataclass(frozen=True)
class SignalingReport:
    """Gap statistics between the two bases' detection curves."""

    r_psi: float
    r_phi: float
    ratio_gap: float
    sup_gap: float


def detection_probability(dens: Density, det: DetectorSpec, y_c: float) -> float:
    """Trapezoid evaluation of the kernel-weighted density around y_c."""
    grid = dens.grid
    if y_c < grid.lo - 3.0 * det.w or y_c > grid.hi + 3.0 * det.w:
        warnings.warn(
            f"detector center {y_c} lies outside the grid window; "
            "kernel mass is truncated",
            stacklevel=2,
        )
    kernel = det.kernel(grid.points - y_c)
    return float(np.sum(grid.trapezoid_weights() * kernel * dens.values))


def detection_curve(
    dens: Density, det: DetectorSpec, centers: np.ndarray
) -> np.ndarray:
    """detection_probability evaluated at many centers, deterministically."""
    y = dens.grid.points
    weighted = dens.grid.trapezoid_weights() * dens.values
    centers = np.asarray(centers, dtype=float)
    out = np.empty(centers.size)
    for start in range(0, centers.size, _CURVE_CHUNK):
        block = slice(start, min(start + _CURVE_CHUNK, centers.size))
        kernels = det.kernel(y[np.newaxis, :] - centers[block, np.newaxis])
        out[block] = kernels @ weighted
    return out


def detection_ratio(dens: Density, det: DetectorSpec) -> RatioResult:
    """Ratio of the detection probability at the origin to that at the
    density maximum (ties broken toward the smallest |y|)."""
    values = dens.values
    peak = float(values.max())
    candidates = np.flatnonzero(values == peak)
    interior = candidates[(candidates > 0) & (candidates < values.size - 1)]
    if interior.size == 0:
        raise ValueError("density has no interior maximum")
    y = dens.grid.points
    y_m = float(y[interior[np.argmin(np.abs(y[interior]))]])
    prob_peak = detection_probability(dens, det, y_m)
    if prob_peak == 0.0:
        raise ValueError("detection probability vanishes at the maximum; "
                         "the ratio is undefined")
    prob_origin = detection_probability(dens, det, 0.0)
    return RatioResult(prob_origin / prob_peak, y_m, prob_origin, prob_peak)


def small_velocity_approx(
    gamma_beta: float, v: float, w: float
) -> tuple[float, float]:
    """Leading-order approximants for slow superposed momenta.

    Returns (approximate x-basis ratio w**2 v**2 / 2, approximate ratio of
    ratios 1 + (gamma_beta - 1) / (2 (gamma_beta + 1) w**2)). Validity of the
    small-v regime is the caller's judgment.
    """
    if gamma_beta < 1.0:
        raise ValueError(f"gamma_beta must be >= 1, got {gamma_beta!r}")
    r_phi = 0.5 * (w * v) ** 2
    ratio = 1.0 + (gamma_beta - 1.0) / (2.0 * (gamma_beta + 1.0) * w**2)
    return r_phi, ratio


def ratio_report(
    density_psi: Density,
    density_phi: Density,
    det: DetectorSpec,
    gamma_beta: float,
    v: float,
) -> RatioReport:
    """Assemble both exact ratios and the small-velocity approximants."""
    res_psi = detection_ratio(density_psi, det)
    res_phi = detection_ratio(density_phi, det)
    approx_r_phi, approx_ratio = small_velocity_approx(gamma_beta, v, det.w)
    return RatioReport(
        r_psi=res_psi.ratio,
        r_phi=res_phi.ratio,
        ratio_of_ratios=res_psi.ratio / res_phi.ratio,
        approx_r_phi=approx_r_phi,
        approx_ratio=approx_ratio,
        y_m=res_psi.peak_location,
    )


def signaling_discriminator(
    density_psi: Density,
    density_phi: Density,
    det: DetectorSpec,
    curves: tuple[np.ndarray, np.ndarray] | None = None,
    ratios: tuple[float, float] | None = None,
) -> SignalingReport:
    """Gap between the two bases' detection statistics.

    The sup statistic scans the detector center over the whole grid; a value
    at rounding level certifies that the position statistics carry no record
    of the remote basis choice for this pair of densities. Detection
    ``curves`` over the grid and ratios (r_psi, r_phi) that the caller has
    already computed are used as given instead of being computed again.
    """
    if density_psi.grid != density_phi.grid:
        raise ValueError("densities must share one grid")
    pair = (density_psi, density_phi)
    if curves is None:
        curves = tuple(detection_curve(d, det, d.grid.points) for d in pair)
    if ratios is None:
        ratios = tuple(detection_ratio(d, det).ratio for d in pair)
    curve_psi, curve_phi = curves
    r_psi, r_phi = ratios
    return SignalingReport(
        r_psi=r_psi,
        r_phi=r_phi,
        ratio_gap=abs(r_psi - r_phi),
        sup_gap=float(np.max(np.abs(curve_psi - curve_phi))),
    )
