"""Gaussian-kernel detector model and the min-to-max detection ratio.

The detector responds to the particle's presence, not its spin: the
probability of a count with the detector centered at y_c is the density
convolved with a normalized Gaussian kernel of width w. Widths are bounded
below by the Compton wavelength (= 1 in internal units) because the particle
cannot be localized more sharply than that.

Every density detected here is that of a superposition of the momenta +p
and -p with its interference minimum at the origin, normalized over a window
of whole half-periods pi/p of length L: (1 - V cos 2py) / L, with V the
fringe visibility (``states.fringe_visibility``). The kernel turns it into
exactly (1 - V E cos 2p y_c) / L with E = exp(-p**2 w**2), so every statistic
below is computed in closed form from (p, V).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .wavefunction import UniformGrid

__all__ = [
    "DetectorSpec",
    "RatioReport",
    "SignalingReport",
    "detection_curve",
    "detection_ratio",
    "small_velocity_approx",
    "ratio_report",
    "signaling_discriminator",
]


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


def detection_curve(
    p: float, visibility: float, det: DetectorSpec, grid: UniformGrid
) -> np.ndarray:
    """Detection probability with the detector centered at each grid point,
    for the density (1 - V cos 2py) / L normalized over the grid's window of
    length L (whole half-periods pi/p)."""
    fringe = visibility * math.exp(-((p * det.w) ** 2))
    return (1.0 - fringe * np.cos(2.0 * p * grid.points)) / (grid.hi - grid.lo)


def detection_ratio(p: float, visibility: float, det: DetectorSpec) -> float:
    """Ratio (1 - V E) / (1 + V E) of the detection probability at the origin
    (a fringe minimum) to that at the maximum y_m = -pi / (2p)."""
    x = (p * det.w) ** 2
    # 1 - V E written with expm1 so that no digit of a small ratio is lost
    return ((1.0 - visibility) - visibility * math.expm1(-x)) / (
        1.0 + visibility * math.exp(-x)
    )


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
    p: float,
    visibility_psi: float,
    visibility_phi: float,
    det: DetectorSpec,
    gamma_beta: float,
    v: float,
) -> RatioReport:
    """Assemble both exact ratios and the small-velocity approximants."""
    r_psi = detection_ratio(p, visibility_psi, det)
    r_phi = detection_ratio(p, visibility_phi, det)
    approx_r_phi, approx_ratio = small_velocity_approx(gamma_beta, v, det.w)
    return RatioReport(
        r_psi=r_psi,
        r_phi=r_phi,
        ratio_of_ratios=r_psi / r_phi,
        approx_r_phi=approx_r_phi,
        approx_ratio=approx_ratio,
        y_m=-0.5 * math.pi / p,
    )


def signaling_discriminator(
    p: float,
    visibility_psi: float,
    visibility_phi: float,
    det: DetectorSpec,
    grid: UniformGrid,
    ratios: tuple[float, float] | None = None,
) -> SignalingReport:
    """Gap between the two bases' detection statistics.

    The sup statistic is the largest gap between the two detection curves
    over every detector center, |V_psi - V_phi| E / L, reached at the fringe
    minima; a value at rounding level certifies that the position statistics
    carry no record of the remote basis choice. Ratios (r_psi, r_phi) that
    the caller has already computed are used as given.
    """
    if ratios is None:
        ratios = (
            detection_ratio(p, visibility_psi, det),
            detection_ratio(p, visibility_phi, det),
        )
    r_psi, r_phi = ratios
    gap = abs(visibility_psi - visibility_phi) * math.exp(-((p * det.w) ** 2))
    return SignalingReport(
        r_psi=r_psi,
        r_phi=r_phi,
        ratio_gap=abs(r_psi - r_phi),
        sup_gap=gap / (grid.hi - grid.lo),
    )
