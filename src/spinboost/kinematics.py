"""Relativistic kinematics for a spin-1/2 particle boosted perpendicular to
its momentum.

Natural units throughout: hbar = c = 1 and the particle rest mass m = 1.
Lengths are therefore in units of the reduced Compton wavelength hbar/(m c),
momenta in units of m c, and all speeds are fractions of c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COMPTON_WAVELENGTH",
    "REST_MASS",
    "FourMomentum",
    "BoostParameter",
    "gamma_from_speed",
    "speed_from_gamma",
    "wigner_half_angle_sine",
    "wigner_angle",
]

#: Reduced Compton wavelength hbar/(m c); the internal unit of length.
COMPTON_WAVELENGTH = 1.0

#: Particle rest mass; the internal unit of mass.
REST_MASS = 1.0

# Below this distance from gamma = 1 the rotation angle is numerically
# indistinguishable from zero; clamp to avoid cancellation noise.
_DEGENERATE_GAMMA = 1e-14


def gamma_from_speed(speed: float) -> float:
    """Lorentz factor 1/sqrt(1 - speed**2) for a speed in [0, 1)."""
    if not 0.0 <= speed < 1.0:
        raise ValueError(f"speed must lie in [0, 1), got {speed!r}")
    return 1.0 / math.sqrt((1.0 - speed) * (1.0 + speed))


def speed_from_gamma(gamma: float) -> float:
    """Speed sqrt(1 - 1/gamma**2) belonging to a Lorentz factor gamma >= 1."""
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"gamma must be finite and >= 1, got {gamma!r}")
    return math.sqrt((gamma - 1.0) * (gamma + 1.0)) / gamma


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum along the y axis, in units of m c.

    The sign of ``p`` is the propagation direction; the energy ``p0`` and
    Lorentz factor ``gamma_p`` depend only on its magnitude.
    """

    p: float
    m: float = REST_MASS

    def __post_init__(self) -> None:
        if not math.isfinite(self.p):
            raise ValueError(f"momentum must be finite, got {self.p!r}")
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"rest mass must be positive, got {self.m!r}")

    @property
    def p0(self) -> float:
        """Energy sqrt(m**2 + p**2); always >= m."""
        return math.hypot(self.m, self.p)

    @property
    def gamma_p(self) -> float:
        """Lorentz factor p0/m of the particle."""
        return self.p0 / self.m

    @property
    def speed(self) -> float:
        """Signed particle speed p/p0 as a fraction of c."""
        return self.p / self.p0

    @classmethod
    def from_gamma(cls, gamma_p: float, direction: float = 1.0) -> "FourMomentum":
        """Momentum of magnitude m*sqrt(gamma_p**2 - 1) along ``direction``."""
        if not (math.isfinite(gamma_p) and gamma_p >= 1.0):
            raise ValueError(f"gamma_p must be finite and >= 1, got {gamma_p!r}")
        magnitude = REST_MASS * math.sqrt((gamma_p - 1.0) * (gamma_p + 1.0))
        return cls(math.copysign(magnitude, direction))

    @classmethod
    def from_speed(cls, speed: float) -> "FourMomentum":
        """Momentum m*gamma*v for a signed speed v in (-1, 1)."""
        gamma = gamma_from_speed(abs(speed))
        return cls(REST_MASS * gamma * speed)


@dataclass(frozen=True)
class BoostParameter:
    """Boost of speed beta along the z axis, perpendicular to the momentum."""

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta!r}")

    @property
    def gamma(self) -> float:
        """Lorentz factor of the frame change."""
        return gamma_from_speed(self.beta)

    @classmethod
    def from_gamma(cls, gamma_beta: float) -> "BoostParameter":
        return cls(speed_from_gamma(gamma_beta))


def wigner_half_angle_sine(
    gamma_p: float | np.ndarray, gamma_beta: float | np.ndarray
) -> float | np.ndarray:
    """sin(phi/2) of the spin rotation produced by boosting a particle of
    Lorentz factor ``gamma_p`` perpendicular to its momentum with ``gamma_beta``.

    Symmetric in its arguments and always in [0, 1/sqrt(2)), so the full
    rotation angle stays below pi/2. Either argument may be an array; the
    result is then an array of their broadcast shape, and a float otherwise.
    """
    lowest = np.minimum(gamma_p, gamma_beta)
    if not (lowest >= 1.0).all():
        raise ValueError(
            f"both Lorentz factors must be >= 1, got ({gamma_p!r}, {gamma_beta!r})"
        )
    s = np.sqrt(
        (gamma_p - 1.0) * (gamma_beta - 1.0) / (2.0 * (1.0 + gamma_p * gamma_beta))
    )
    s = np.where(lowest - 1.0 < _DEGENERATE_GAMMA, 0.0, s)
    return float(s) if s.ndim == 0 else s


def wigner_angle(momentum: FourMomentum, boost: BoostParameter) -> float:
    """Signed rotation angle for the given momentum: odd in p, zero at p = 0.

    Counter-propagating momenta rotate by opposite angles about the same
    (x) axis, which is what entangles spin and momentum in the new frame.
    """
    if momentum.p == 0.0:
        return 0.0
    half_sine = wigner_half_angle_sine(momentum.gamma_p, boost.gamma)
    return math.copysign(2.0 * math.asin(half_sine), momentum.p)
