"""Discrete momentum-spin superpositions and projective measurement collapse.

Momentum kets are orthonormal discrete labels: components with distinct
momenta never interfere in norm computations, only in the synthesized
position wavefunction. All states here are finite superpositions
sum_k amplitude_k |p_k> (x) |spin_k> with normalized spinors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import FourMomentum
from .spin import Spinor, SPIN_PLUS_Z, SPIN_MINUS_Z, eigenspinor

__all__ = [
    "StateComponent",
    "MomentumSpinState",
    "TwoParticleTerm",
    "TwoParticleState",
    "MeasurementSpec",
    "build_entangled_pair",
    "collapse",
    "standing_wave_state",
    "center_interference_minimum",
    "common_momentum_magnitude",
    "fringe_visibility",
]

_NORM_TOL = 1e-9
_ZERO_AMPLITUDE = 1e-15


@dataclass(frozen=True)
class StateComponent:
    momentum: FourMomentum
    spin: Spinor
    amplitude: complex

    def coefficient_vector(self) -> np.ndarray:
        """Unnormalized 2-vector amplitude * spin on the z basis."""
        return complex(self.amplitude) * self.spin.vector


@dataclass(frozen=True)
class MomentumSpinState:
    """Superposition of (momentum, spinor) components with complex weights."""

    components: tuple[StateComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("state needs at least one component")
        momenta = [c.momentum.p for c in self.components]
        if len(set(momenta)) != len(momenta):
            raise ValueError(f"component momenta must be pairwise distinct, got {momenta}")
        for c in self.components:
            if abs(c.spin.norm() - 1.0) > _NORM_TOL:
                raise ValueError("component spinors must be normalized")

    def norm(self) -> float:
        return math.sqrt(sum(abs(c.amplitude) ** 2 for c in self.components))

    def normalized(self) -> "MomentumSpinState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return MomentumSpinState(
            tuple(
                StateComponent(c.momentum, c.spin, complex(c.amplitude) / n)
                for c in self.components
            )
        )

    def coefficients(self) -> dict[float, np.ndarray]:
        """Map momentum value -> unnormalized spin 2-vector."""
        return {c.momentum.p: c.coefficient_vector() for c in self.components}

    def inner(self, other: "MomentumSpinState") -> complex:
        """Inner product <self|other>, matching components by momentum."""
        mine = self.coefficients()
        total = 0.0 + 0.0j
        for p, vec in other.coefficients().items():
            if p in mine:
                total += np.vdot(mine[p], vec)
        return complex(total)

    def translated(self, dy: float) -> "MomentumSpinState":
        """State whose position wavefunction is this one's evaluated at y + dy.

        Multiplies each amplitude by exp(i p_k dy); features of the pattern
        located at y = dy move to the origin.
        """
        return MomentumSpinState(
            tuple(
                StateComponent(
                    c.momentum,
                    c.spin,
                    complex(c.amplitude) * cmath.exp(1j * c.momentum.p * dy),
                )
                for c in self.components
            )
        )

    def canonicalized(self) -> "MomentumSpinState":
        """Deterministic phase gauge: each spinor's first entry and the first
        amplitude are made real positive.

        Component rays and all observables are untouched; this only removes
        rounding-level phase asymmetries so that physically identical states
        compare (and serialize) identically. Components with negligible
        weight are dropped.
        """
        components = []
        for c in self.components:
            vec = c.coefficient_vector()
            weight = float(np.linalg.norm(vec))
            if weight <= _ZERO_AMPLITUDE:
                continue
            phase = _canonical_phase(vec)
            spin_vec = vec / (weight * phase)
            components.append(
                StateComponent(
                    c.momentum, Spinor(spin_vec[0], spin_vec[1]), weight * phase
                )
            )
        if not components:
            raise ValueError("cannot fix the phase of the zero state")
        global_phase = _canonical_phase(np.array([c.amplitude for c in components]))
        return MomentumSpinState(
            tuple(
                StateComponent(
                    c.momentum, c.spin, complex(c.amplitude) * np.conj(global_phase)
                )
                for c in components
            )
        )


@dataclass(frozen=True)
class TwoParticleTerm:
    amplitude: complex
    momentum1: FourMomentum
    spin1: Spinor
    momentum2: FourMomentum
    spin2: Spinor


@dataclass(frozen=True)
class TwoParticleState:
    """Finite superposition of product terms for a particle pair."""

    terms: tuple[TwoParticleTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("state needs at least one term")

    def norm(self) -> float:
        # Terms built here are orthogonal in the (momentum1, spin-label,
        # momentum2) product structure; treat them as such.
        return math.sqrt(sum(abs(t.amplitude) ** 2 for t in self.terms))


@dataclass(frozen=True)
class MeasurementSpec:
    """Projective spin measurement on particle 1: basis 'z' or 'x', outcome +-1."""

    basis: str
    outcome: int

    def __post_init__(self) -> None:
        if self.basis not in ("z", "x") or self.outcome not in (+1, -1):
            raise ValueError(
                f"basis must be 'z' or 'x' and outcome +1 or -1, got "
                f"({self.basis!r}, {self.outcome!r})"
            )

    def eigenspinor(self) -> Spinor:
        return eigenspinor(self.basis, self.outcome)


def build_entangled_pair(p: float) -> TwoParticleState:
    """Singlet-spin pair: particle 1 propagates along +y, particle 2 is an
    equal-weight superposition of counter-propagating momenta +-p.

    The four product terms carry amplitudes (+1/2, -1/2, -1/2, +1/2).
    """
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"momentum magnitude must be positive, got {p!r}")
    plus = FourMomentum(p)
    minus = FourMomentum(-p)
    half = 0.5
    return TwoParticleState(
        (
            TwoParticleTerm(+half, plus, SPIN_PLUS_Z, plus, SPIN_MINUS_Z),
            TwoParticleTerm(-half, plus, SPIN_PLUS_Z, minus, SPIN_MINUS_Z),
            TwoParticleTerm(-half, plus, SPIN_MINUS_Z, plus, SPIN_PLUS_Z),
            TwoParticleTerm(+half, plus, SPIN_MINUS_Z, minus, SPIN_PLUS_Z),
        )
    )


def _canonical_phase(vec: np.ndarray) -> complex:
    """Phase of the first non-negligible entry of a complex vector."""
    for entry in vec:
        if abs(entry) > _ZERO_AMPLITUDE:
            return entry / abs(entry)
    return 1.0 + 0.0j


def collapse(
    state: TwoParticleState, meas: MeasurementSpec
) -> tuple[float, MomentumSpinState | None]:
    """Project particle 1 on the measurement eigenspinor and return the Born
    probability together with particle 2's renormalized conditional state.

    A zero-probability outcome returns (0.0, None). Phases are fixed
    deterministically (first spinor entry and first amplitude real positive),
    which only adjusts the unobservable global phase.
    """
    eig = meas.eigenspinor()
    order: list[float] = []
    accumulated: dict[float, np.ndarray] = {}
    momenta: dict[float, FourMomentum] = {}
    for term in state.terms:
        weight = complex(term.amplitude) * eig.overlap(term.spin1)
        key = term.momentum2.p
        if key not in accumulated:
            order.append(key)
            accumulated[key] = np.zeros(2, dtype=complex)
            momenta[key] = term.momentum2
        accumulated[key] += weight * term.spin2.vector

    probability = float(sum(np.vdot(v, v).real for v in accumulated.values()))
    if probability <= _ZERO_AMPLITUDE**2:
        return 0.0, None

    scale = 1.0 / math.sqrt(probability)
    raw = MomentumSpinState(
        tuple(
            StateComponent(
                momenta[key],
                Spinor(*(accumulated[key] / np.linalg.norm(accumulated[key]))),
                float(np.linalg.norm(accumulated[key])) * scale,
            )
            for key in order
            if np.linalg.norm(accumulated[key]) > _ZERO_AMPLITUDE
        )
    )
    return probability, raw.canonicalized()


def standing_wave_state(p: float, spin: Spinor) -> MomentumSpinState:
    """Equal-weight superposition of counter-propagating momenta +-p with a
    common spin: (|+p, spin> - |-p, spin>)/sqrt(2)."""
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"momentum magnitude must be positive, got {p!r}")
    s = spin.normalized()
    amp = 1.0 / math.sqrt(2.0)
    return MomentumSpinState(
        (
            StateComponent(FourMomentum(p), s, +amp),
            StateComponent(FourMomentum(-p), s, -amp),
        )
    )


def common_momentum_magnitude(state: MomentumSpinState, rel_tol: float = 1e-12) -> float:
    """Shared |p| of all components; raises if the magnitudes differ."""
    magnitudes = [abs(c.momentum.p) for c in state.components]
    largest = max(magnitudes)
    if largest - min(magnitudes) > rel_tol * max(largest, 1.0):
        raise ValueError(
            f"components have unequal momentum magnitudes {sorted(set(magnitudes))}"
        )
    return largest


def _cross_term(first: StateComponent, second: StateComponent) -> complex:
    """a_1 conj(a_2) <chi_2|chi_1>: the density of the two components is
    |a_1|**2 + |a_2|**2 + 2 Re(cross exp(i q y)), q = p_1 - p_2."""
    return (
        complex(first.amplitude)
        * np.conj(complex(second.amplitude))
        * second.spin.overlap(first.spin)
    )


def fringe_visibility(state: MomentumSpinState) -> float:
    """Fringe visibility V = 2|a_1 a_2 <chi_2|chi_1>| / (|a_1|**2 + |a_2|**2)
    of a two-momentum superposition, 0 for a single component.

    The position density is proportional to 1 + V cos(q y + theta), q the
    momentum difference, so V = (max - min) / (max + min) of the pattern.
    It is unchanged by translations and by any common spin rotation.
    """
    if len(state.components) == 1:
        return 0.0
    first, second = state.components
    weight = abs(first.amplitude) ** 2 + abs(second.amplitude) ** 2
    # V <= 1 exactly; rounding puts a fully visible pattern one ulp above it
    return min(1.0, 2.0 * abs(_cross_term(first, second)) / weight)


def center_interference_minimum(state: MomentumSpinState) -> MomentumSpinState:
    """Translate a two-momentum superposition so the minimum of its position
    density nearest the origin sits exactly at y = 0.

    The density of a two-component state is A + 2|C| cos(q y + theta) with
    q the momentum difference; choosing the origin at a pattern minimum makes
    theta = pi. A rigid translation carries no detection-statistics content
    (the detector is calibrated on the observed pattern), so this only fixes
    the coordinate convention. States without a two-momentum interference
    term are returned unchanged.
    """
    if len(state.components) != 2:
        return state
    first, second = state.components
    q = first.momentum.p - second.momentum.p
    if q == 0.0:
        return state
    cross = _cross_term(first, second)
    if abs(cross) <= _ZERO_AMPLITUDE * abs(first.amplitude * second.amplitude):
        return state
    theta = cmath.phase(cross)
    offset = math.remainder(math.pi - theta, 2.0 * math.pi) / q
    if offset == 0.0:
        return state
    moved = state.translated(offset).canonicalized()
    if len(moved.components) != 2:
        return moved
    # the construction's postcondition is an exactly real-negative cross
    # term; enforce it on the second amplitude so rounding in the phase
    # algebra cannot leak into the (translation-invariant) density
    first, second = moved.components
    overlap = second.spin.overlap(first.spin)
    exact_amplitude = -abs(second.amplitude) * overlap / abs(overlap)
    return MomentumSpinState(
        (first, StateComponent(second.momentum, second.spin, exact_amplitude))
    )
