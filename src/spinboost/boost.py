"""Frame-change maps for momentum-spin states.

Two competing semantics are provided. The linear map rotates every momentum
component by the rotation belonging to that component's own momentum, which
is only valid for genuinely free states. The physical map applies one common
rotation fixed by how the state was prepared: states assembled by reflecting
a particle off potential walls keep the rotation of the momentum they had
when the spin was set, and a particle confined during the spin measurement
picks up no rotation at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .kinematics import BoostParameter, FourMomentum, wigner_angle
from .spin import apply, wigner_rotation
from .states import MomentumSpinState, StateComponent, common_momentum_magnitude

__all__ = [
    "PreparationContext",
    "BoostMode",
    "boost_linear",
    "boost_physical",
    "transform",
]


class PreparationContext(enum.Enum):
    """How the superposition was physically assembled."""

    PLUS_Y = "plus_y"
    MINUS_Y = "minus_y"
    CONFINED = "confined"


@dataclass(frozen=True)
class BoostMode:
    """Which transformation semantics to use for a frame change."""

    kind: str
    preparation: PreparationContext | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "physical"):
            raise ValueError(f"kind must be 'linear' or 'physical', got {self.kind!r}")
        if self.kind == "physical":
            if self.preparation is None:
                raise ValueError("physical mode needs a preparation context")
        elif self.preparation is not None:
            raise ValueError("linear mode takes no preparation context")


def _rotate_all(state: MomentumSpinState, operator: np.ndarray) -> MomentumSpinState:
    return MomentumSpinState(
        tuple(
            StateComponent(c.momentum, apply(operator, c.spin), c.amplitude)
            for c in state.components
        )
    )


def boost_linear(state: MomentumSpinState, boost: BoostParameter) -> MomentumSpinState:
    """Rotate each component's spinor by the rotation of its own momentum.

    Momentum labels are untouched: the y momentum is unchanged by a z boost,
    and transverse components are outside this model. Norm is preserved.
    """
    return MomentumSpinState(
        tuple(
            StateComponent(
                c.momentum,
                apply(wigner_rotation(wigner_angle(c.momentum, boost)), c.spin),
                c.amplitude,
            )
            for c in state.components
        )
    )


def boost_physical(
    state: MomentumSpinState,
    boost: BoostParameter,
    prep: PreparationContext,
) -> MomentumSpinState:
    """Rotate every component by the single rotation fixed by the preparation.

    The rotation sign follows the momentum the particle had when its spin
    was set (+|p| or -|p|), not each component's own momentum; a confined
    preparation yields no rotation. The output therefore factorizes into
    (common spin unitary) x (untouched momentum structure).
    """
    if prep is PreparationContext.CONFINED:
        return state
    magnitude = common_momentum_magnitude(state)
    sign = +1.0 if prep is PreparationContext.PLUS_Y else -1.0
    angle = wigner_angle(FourMomentum(sign * magnitude), boost)
    return _rotate_all(state, wigner_rotation(angle))


def transform(
    state: MomentumSpinState, boost: BoostParameter, mode: BoostMode
) -> MomentumSpinState:
    """Dispatch to boost_linear or boost_physical according to ``mode``."""
    if mode.kind == "linear":
        return boost_linear(state, boost)
    assert mode.preparation is not None
    return boost_physical(state, boost, mode.preparation)
