import math

import numpy as np
import pytest

from spinboost import (
    BoostMode,
    BoostParameter,
    FourMomentum,
    MomentumSpinState,
    PreparationContext,
    SPIN_PLUS_X,
    SPIN_PLUS_Z,
    Spinor,
    StateComponent,
    boost_linear,
    boost_physical,
    standing_wave_state,
    transform,
    wigner_angle,
    wigner_rotation,
)

P_REF = FourMomentum.from_gamma(1.2).p
BOOST = BoostParameter.from_gamma(10.0)
PHI = wigner_angle(FourMomentum(P_REF), BOOST)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _random_state(rng):
    p = rng.uniform(0.05, 3.0)
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    spin = Spinor(vec[0], vec[1]).normalized()
    phase = math.tau * rng.uniform()
    amp = rng.uniform(0.1, 0.9)
    return MomentumSpinState(
        (
            StateComponent(FourMomentum(p), spin, amp * np.exp(1j * phase)),
            StateComponent(FourMomentum(-p), spin, math.sqrt(1.0 - amp**2)),
        )
    )


class TestBoostLinear:
    def test_z_polarized_standing_wave_components(self):
        state = boost_linear(standing_wave_state(P_REF, SPIN_PLUS_Z), BOOST)
        half = 0.5 * PHI
        plus, minus = state.components
        np.testing.assert_allclose(
            plus.spin.vector, [math.cos(half), 1j * math.sin(half)], atol=1e-15
        )
        np.testing.assert_allclose(
            minus.spin.vector, [math.cos(half), -1j * math.sin(half)], atol=1e-15
        )
        assert plus.amplitude == pytest.approx(+INV_SQRT2)
        assert minus.amplitude == pytest.approx(-INV_SQRT2)

    def test_x_polarized_components_stay_on_the_x_ray(self):
        state = boost_linear(standing_wave_state(P_REF, SPIN_PLUS_X), BOOST)
        for component, sign in zip(state.components, (+1.0, -1.0)):
            overlap = SPIN_PLUS_X.overlap(component.spin)
            assert abs(overlap) == pytest.approx(1.0, abs=1e-14)
            # eigenstate of the rotation axis: pure momentum-signed phase
            assert overlap == pytest.approx(np.exp(sign * 0.5j * PHI), abs=1e-14)

    def test_no_boost_is_identity(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        out = boost_linear(state, BoostParameter(0.0))
        for got, want in zip(out.components, state.components):
            np.testing.assert_allclose(got.spin.vector, want.spin.vector, atol=1e-16)
            assert got.amplitude == want.amplitude

    def test_momenta_unchanged(self):
        state = boost_linear(standing_wave_state(P_REF, SPIN_PLUS_Z), BOOST)
        assert [c.momentum.p for c in state.components] == [P_REF, -P_REF]

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = _random_state(rng)
            boost = BoostParameter(rng.uniform(0.0, 0.999))
            assert boost_linear(state, boost).norm() == pytest.approx(
                state.norm(), abs=1e-12
            )


class TestBoostPhysical:
    def test_minus_y_rotates_everything_the_same_way(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        out = boost_physical(state, BOOST, PreparationContext.MINUS_Y)
        expected = wigner_rotation(-PHI) @ SPIN_PLUS_Z.vector
        for component in out.components:
            np.testing.assert_allclose(component.spin.vector, expected, atol=1e-15)

    def test_plus_y_uses_the_opposite_sign(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        out = boost_physical(state, BOOST, PreparationContext.PLUS_Y)
        expected = wigner_rotation(+PHI) @ SPIN_PLUS_Z.vector
        for component in out.components:
            np.testing.assert_allclose(component.spin.vector, expected, atol=1e-15)

    def test_confined_preparation_is_untouched(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        assert boost_physical(state, BOOST, PreparationContext.CONFINED) is state

    def test_unequal_magnitudes_are_rejected(self):
        mixed = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, INV_SQRT2),
                StateComponent(FourMomentum(2.0), SPIN_PLUS_Z, INV_SQRT2),
            )
        )
        with pytest.raises(ValueError, match="magnitude"):
            boost_physical(mixed, BOOST, PreparationContext.MINUS_Y)

    def test_single_momentum_state_agrees_with_linear_map(self):
        for sign, prep in (
            (+1.0, PreparationContext.PLUS_Y),
            (-1.0, PreparationContext.MINUS_Y),
        ):
            single = MomentumSpinState(
                (StateComponent(FourMomentum(sign * P_REF), SPIN_PLUS_Z, 1.0),)
            )
            lin = boost_linear(single, BOOST)
            phys = boost_physical(single, BOOST, prep)
            np.testing.assert_array_equal(
                lin.components[0].spin.vector, phys.components[0].spin.vector
            )

    def test_factorizes_into_common_unitary(self):
        rng = np.random.default_rng(11)
        for prep, sign in (
            (PreparationContext.PLUS_Y, +1.0),
            (PreparationContext.MINUS_Y, -1.0),
        ):
            for _ in range(50):
                state = _random_state(rng)
                boost = BoostParameter(rng.uniform(0.0, 0.999))
                out = boost_physical(state, boost, prep)
                angle = sign * wigner_angle(
                    FourMomentum(abs(state.components[0].momentum.p)), boost
                )
                common = wigner_rotation(angle)
                for before, after in zip(state.components, out.components):
                    np.testing.assert_allclose(
                        after.spin.vector, common @ before.spin.vector, atol=1e-13
                    )
                    assert after.amplitude == before.amplitude

    def test_norm_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            state = _random_state(rng)
            boost = BoostParameter(rng.uniform(0.0, 0.999))
            out = boost_physical(state, boost, PreparationContext.MINUS_Y)
            assert out.norm() == pytest.approx(state.norm(), abs=1e-12)

    def test_no_boost_is_identity(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_X)
        out = boost_physical(state, BoostParameter(0.0), PreparationContext.MINUS_Y)
        for got, want in zip(out.components, state.components):
            np.testing.assert_allclose(got.spin.vector, want.spin.vector, atol=1e-16)


class TestBoostMode:
    def test_linear_mode_dispatch(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        via_mode = transform(state, BOOST, BoostMode("linear"))
        direct = boost_linear(state, BOOST)
        for a, b in zip(via_mode.components, direct.components):
            np.testing.assert_array_equal(a.spin.vector, b.spin.vector)

    def test_physical_mode_dispatch(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        mode = BoostMode("physical", PreparationContext.CONFINED)
        assert transform(state, BOOST, mode) is state

    def test_physical_mode_requires_context(self):
        with pytest.raises(ValueError):
            BoostMode("physical")

    def test_linear_mode_takes_no_context(self):
        with pytest.raises(ValueError):
            BoostMode("linear", PreparationContext.MINUS_Y)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BoostMode("quadratic")
