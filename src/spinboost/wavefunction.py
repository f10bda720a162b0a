"""Position-space synthesis of spin-component wavefunctions.

Discrete two-momentum superpositions are synthesized in closed form on a
uniform y grid; Gaussian momentum wavepackets go through trapezoid
quadrature over a momentum grid, with the per-momentum spin rotation applied
inside the integral. That quadrature, sum_k g_k exp(i y_j p_k) over uniform
y and p, is a chirp-z transform and is evaluated with FFTs by Bluestein's
algorithm in O((n + m) log(n + m)) rather than as an n x m sum. Both paths
return a pair of complex spin-component sample arrays normalized so the
total density integrates to one.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kinematics import BoostParameter, wigner_half_angle_sine
from .spin import Spinor
from .states import MomentumSpinState, common_momentum_magnitude

__all__ = [
    "UniformGrid",
    "KFactor",
    "GaussianPacketSpec",
    "PositionWavefunction",
    "Density",
    "synthesize_discrete",
    "synthesize_gaussian",
    "density",
]

#: Momentum-amplitude ratio at the quadrature range edge above which the
#: range is flagged as too narrow.
EDGE_AMPLITUDE_LIMIT = 1e-8

@dataclass(frozen=True)
class UniformGrid:
    """Uniform grid of positions or momenta, inclusive of both endpoints."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n_points}")
        if not self.hi > self.lo:
            raise ValueError(f"empty grid window [{self.lo}, {self.hi}]")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @classmethod
    def standing_wave(
        cls, p: float, half_periods: int = 8, n_points: int = 4097
    ) -> "UniformGrid":
        """Position window of an integer number of half-periods pi/p, centered on 0.

        The default 4096 intervals make the pattern's zeros, extrema and the
        origin exact grid points whenever ``n_points - 1`` is divisible by
        ``4 * half_periods``, so the trapezoid normalization is exact.
        """
        if not (math.isfinite(p) and p > 0.0):
            raise ValueError(f"momentum magnitude must be positive, got {p!r}")
        if half_periods < 1:
            raise ValueError(f"need at least one half-period, got {half_periods}")
        half_window = 0.5 * half_periods * math.pi / p
        return cls(-half_window, half_window, n_points)

    @classmethod
    def for_packet(
        cls, width: float, extent: float = 8.0, n_points: int = 4096
    ) -> "UniformGrid":
        """Symmetric momentum range covering ``extent`` momentum-amplitude widths."""
        if not (math.isfinite(width) and width > 0.0):
            raise ValueError(f"packet width must be positive, got {width!r}")
        return cls(-extent / width, extent / width, n_points)


class KFactor(enum.Enum):
    """Energy-dependent weight in the position-representation integral,
    encoding the choice of relativistic position operator."""

    UNITY = "unity"
    SQRT_M_OVER_P0 = "sqrt_m_over_p0"


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian momentum amplitude exp(-p**2 width**2 / 2) with a fixed spin."""

    width: float
    spin: Spinor
    k_factor: KFactor = KFactor.SQRT_M_OVER_P0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"packet width must be positive, got {self.width!r}")


@dataclass(frozen=True, eq=False)
class PositionWavefunction:
    """Sampled spin-up/spin-down complex components on a y grid."""

    grid: UniformGrid
    up: np.ndarray
    down: np.ndarray
    meta: dict = field(default_factory=dict)

    def norm_integral(self) -> float:
        return density(self).integral()


@dataclass(frozen=True, eq=False)
class Density:
    """Sampled position density on a y grid."""

    grid: UniformGrid
    values: np.ndarray

    def integral(self) -> float:
        return float(np.sum(self.grid.trapezoid_weights() * self.values))


def density(wavefunction: PositionWavefunction) -> Density:
    """Pointwise |up|**2 + |down|**2 of a normalized wavefunction."""
    values = np.abs(wavefunction.up) ** 2 + np.abs(wavefunction.down) ** 2
    return Density(wavefunction.grid, values)


def _normalized(
    grid: UniformGrid, up: np.ndarray, down: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    raw = Density(grid, np.abs(up) ** 2 + np.abs(down) ** 2).integral()
    if raw <= 0.0:
        raise ValueError("wavefunction vanishes on the grid window")
    scale = 1.0 / math.sqrt(raw)
    return up * scale, down * scale, raw


def synthesize_discrete(
    state: MomentumSpinState, grid: UniformGrid
) -> PositionWavefunction:
    """Closed-form plane-wave synthesis of a discrete superposition.

    All momenta must share one magnitude; then the energy-dependent weight
    of the position representation is a common factor and drops out under
    normalization, so the result is representation-independent.
    """
    try:
        magnitude = common_momentum_magnitude(state)
    except ValueError as exc:
        raise ValueError(
            f"{exc}; the closed form is only representation-independent for a "
            "single momentum magnitude - use synthesize_gaussian-style "
            "quadrature with an explicit K factor instead"
        ) from None
    y = grid.points
    up = np.zeros(grid.n_points, dtype=complex)
    down = np.zeros(grid.n_points, dtype=complex)
    for component in state.components:
        coeff = component.coefficient_vector()
        phases = np.exp(1j * component.momentum.p * y)
        up += coeff[0] * phases
        down += coeff[1] * phases
    up, down, _ = _normalized(grid, up, down)
    return PositionWavefunction(grid, up, down, {"momentum_magnitude": magnitude})


def _chirp(tau: float, count: int) -> np.ndarray:
    """exp(2 pi i tau l**2) for l = 0 .. count - 1, with the phase reduced in
    whole turns: tau is split into a head short enough that head * l**2 and
    its fractional part are exact, and a tail whose product is small."""
    l_sq = np.arange(count, dtype=float) ** 2  # exact while count <= 2**26
    exponent = math.frexp(tau)[1]
    quantum = math.ldexp(1.0, exponent - 53 + int(l_sq[-1]).bit_length())
    head = math.floor(tau / quantum) * quantum
    turns = head * l_sq
    turns -= np.floor(turns)
    turns += (tau - head) * l_sq
    return np.exp(2j * math.pi * turns)


def _fourier_synthesis(
    y: UniformGrid, p: UniformGrid, g: np.ndarray
) -> np.ndarray:
    """Sum over k of g[..., k] exp(i y_j p_k) at every y_j, each row of g
    separately, by Bluestein's chirp-z algorithm.

    With y_j = y_0 + j dy and p_k = p_0 + k dp,
    y_j p_k = y_j p_0 + y_0 (p_k - p_0) + dy dp jk, and
    jk = (j**2 + k**2 - (j - k)**2) / 2 makes the last factor a chirp times
    a convolution with the conjugate chirp, done by FFTs of a power-of-two
    length at least n + m - 1.
    """
    n, m = y.n_points, p.n_points
    size = 1 << (n + m - 2).bit_length()
    chirp = _chirp(y.spacing * p.spacing / (4.0 * math.pi), max(n, m))
    kernel = np.zeros(size, dtype=complex)
    kernel[:n] = chirp[:n].conj()
    kernel[size - m + 1 :] = chirp[m - 1 : 0 : -1].conj()
    u = g * (np.exp(1j * y.lo * (p.points - p.lo)) * chirp[:m])
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(kernel))[..., :n]
    return conv * (np.exp(1j * p.lo * y.points) * chirp[:n])


def synthesize_gaussian(
    spec: GaussianPacketSpec,
    boost: BoostParameter | None = None,
    grid: UniformGrid | None = None,
    p_grid: UniformGrid | None = None,
) -> PositionWavefunction:
    """Quadrature synthesis of a Gaussian packet, optionally in a boosted frame.

    Each momentum sample's spinor is rotated by the rotation belonging to
    that momentum (the state is genuinely free, so the per-momentum map is
    the valid one), weighted by the chosen K factor and the Gaussian
    amplitude, and Fourier-summed onto the position grid.

    Parameters
    ----------
    spec : GaussianPacketSpec
        Momentum width, spin and K-factor choice.
    boost : BoostParameter or None
        Frame change perpendicular to the momentum; None means no rotation.
    grid, p_grid : optional
        Position and momentum grids; default to 4096-point windows covering
        8 widths of the packet on both sides.

    Returns
    -------
    PositionWavefunction
        Normalized samples; ``meta`` records the raw position norm, the
        momentum norm (including the 2*pi Fourier factor), their ratio, the
        edge amplitude ratio and a truncation flag.
    """
    if grid is None:
        grid = UniformGrid(-8.0 * spec.width, 8.0 * spec.width, 4096)
    if p_grid is None:
        p_grid = UniformGrid.for_packet(spec.width)

    p = p_grid.points
    amplitude = np.exp(-0.5 * (p * spec.width) ** 2)
    edge_ratio = float(max(amplitude[0], amplitude[-1]) / amplitude.max())
    truncated = edge_ratio > EDGE_AMPLITUDE_LIMIT
    if truncated:
        warnings.warn(
            f"momentum range leaves edge amplitude ratio {edge_ratio:.3e}; "
            "widen the quadrature window",
            stacklevel=2,
        )

    if spec.k_factor is KFactor.SQRT_M_OVER_P0:
        k = (1.0 + p**2) ** -0.25
    else:
        k = np.ones_like(p)

    chi_up, chi_down = spec.spin.normalized().vector
    if boost is None or boost.beta == 0.0:
        cos_half = np.ones_like(p)
        sin_half = np.zeros_like(p)
    else:
        gamma_p = np.sqrt(1.0 + p**2)
        half_sine = wigner_half_angle_sine(gamma_p, boost.gamma)
        sin_half = np.sign(p) * half_sine
        cos_half = np.sqrt(1.0 - half_sine**2)

    weights = p_grid.trapezoid_weights()
    envelope = weights * k * amplitude
    g_up = envelope * (cos_half * chi_up + 1j * sin_half * chi_down)
    g_down = envelope * (cos_half * chi_down + 1j * sin_half * chi_up)

    up, down = _fourier_synthesis(grid, p_grid, np.stack([g_up, g_down]))
    up, down, raw_norm = _normalized(grid, up, down)

    momentum_norm = 2.0 * math.pi * float(
        np.sum(weights * (k * amplitude) ** 2)
    )
    meta = {
        "position_norm_raw": raw_norm,
        "momentum_norm": momentum_norm,
        "parseval_ratio": raw_norm / momentum_norm,
        "edge_amplitude_ratio": edge_ratio,
        "range_truncated": truncated,
    }
    return PositionWavefunction(grid, up, down, meta)
