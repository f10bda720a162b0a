"""Boosted-frame detection statistics for a massive spin-1/2 particle in a
superposition of counter-propagating momenta.

The library builds the entangled two-particle state, collapses it by a
remote spin measurement, carries the surviving particle into a perpendicular
moving frame under either of two spin-transformation semantics (per-momentum
linear rotation, or one preparation-fixed common rotation), synthesizes the
position wavefunction, and pushes its fringe visibility through a
Gaussian-kernel detector model, in closed form, to obtain min-to-max
detection ratios and no-signaling statistics.
"""

from .kinematics import (
    COMPTON_WAVELENGTH,
    REST_MASS,
    BoostParameter,
    FourMomentum,
    gamma_from_speed,
    speed_from_gamma,
    wigner_angle,
    wigner_half_angle_sine,
)
from .spin import (
    SPIN_MINUS_X,
    SPIN_MINUS_Z,
    SPIN_PLUS_X,
    SPIN_PLUS_Z,
    Spinor,
    apply,
    eigenspinor,
    pauli,
    wigner_rotation,
)
from .states import (
    MeasurementSpec,
    MomentumSpinState,
    StateComponent,
    TwoParticleState,
    TwoParticleTerm,
    build_entangled_pair,
    center_interference_minimum,
    collapse,
    common_momentum_magnitude,
    fringe_visibility,
    standing_wave_state,
)
from .boost import (
    BoostMode,
    PreparationContext,
    boost_linear,
    boost_physical,
    transform,
)
from .wavefunction import (
    Density,
    GaussianPacketSpec,
    KFactor,
    PositionWavefunction,
    UniformGrid,
    density,
    synthesize_discrete,
    synthesize_gaussian,
)
from .detection import (
    DetectorSpec,
    RatioReport,
    SignalingReport,
    detection_curve,
    detection_ratio,
    ratio_report,
    signaling_discriminator,
    small_velocity_approx,
)

__version__ = "0.1.0"
