import cmath
import math

import numpy as np
import pytest

from spinboost import (
    FourMomentum,
    MeasurementSpec,
    MomentumSpinState,
    SPIN_MINUS_X,
    SPIN_MINUS_Z,
    SPIN_PLUS_X,
    SPIN_PLUS_Z,
    Spinor,
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

import oracles

P_REF = 0.6633249580710799  # momentum magnitude with gamma_p = 1.2
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _amplitudes(state, momentum_sign):
    for c in state.components:
        if math.copysign(1.0, c.momentum.p) == momentum_sign:
            return c
    raise AssertionError("component not found")


class TestMomentumSpinState:
    def test_rejects_duplicate_momenta(self):
        comp = StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, 1.0)
        with pytest.raises(ValueError):
            MomentumSpinState((comp, comp))

    def test_rejects_unnormalized_spinor(self):
        with pytest.raises(ValueError):
            MomentumSpinState(
                (StateComponent(FourMomentum(1.0), Spinor(1.0, 1.0), 1.0),)
            )

    def test_normalized(self):
        state = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, 3.0),
                StateComponent(FourMomentum(-1.0), SPIN_PLUS_Z, 4.0),
            )
        ).normalized()
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_inner_product_matches_by_momentum(self):
        a = standing_wave_state(2.0, SPIN_PLUS_Z)
        b = standing_wave_state(2.0, SPIN_PLUS_X)
        # <a|b> = sum_k |amp_k|^2 <Z|X> = <Z|X> = 1/sqrt(2)
        assert a.inner(b) == pytest.approx(INV_SQRT2, abs=1e-12)
        assert abs(a.inner(a)) == pytest.approx(1.0, abs=1e-12)

    def test_translation_is_unitary_phase_per_component(self):
        state = standing_wave_state(2.0, SPIN_PLUS_Z)
        moved = state.translated(0.37)
        assert moved.norm() == pytest.approx(1.0, abs=1e-14)
        for before, after in zip(state.components, moved.components):
            expected = complex(before.amplitude) * cmath.exp(
                1j * before.momentum.p * 0.37
            )
            assert after.amplitude == pytest.approx(expected, abs=1e-15)

    def test_common_momentum_magnitude(self):
        state = standing_wave_state(2.0, SPIN_PLUS_Z)
        assert common_momentum_magnitude(state) == 2.0
        mixed = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, INV_SQRT2),
                StateComponent(FourMomentum(2.0), SPIN_PLUS_Z, INV_SQRT2),
            )
        )
        with pytest.raises(ValueError):
            common_momentum_magnitude(mixed)


class TestBuildEntangledPair:
    def test_four_terms_with_printed_sign_pattern(self):
        pair = build_entangled_pair(P_REF)
        assert len(pair.terms) == 4
        expected = [
            (+0.5, +1, SPIN_PLUS_Z, +1, SPIN_MINUS_Z),
            (-0.5, +1, SPIN_PLUS_Z, -1, SPIN_MINUS_Z),
            (-0.5, +1, SPIN_MINUS_Z, +1, SPIN_PLUS_Z),
            (+0.5, +1, SPIN_MINUS_Z, -1, SPIN_PLUS_Z),
        ]
        for term, (amp, sign1, spin1, sign2, spin2) in zip(pair.terms, expected):
            assert term.amplitude == amp
            assert term.momentum1.p == sign1 * P_REF
            assert term.spin1 == spin1
            assert term.momentum2.p == sign2 * P_REF
            assert term.spin2 == spin2

    @pytest.mark.parametrize("p", [0.1, 1.0, 5.0])
    def test_normalized_for_any_momentum(self, p):
        assert build_entangled_pair(p).norm() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_momentum(self, p):
        with pytest.raises(ValueError):
            build_entangled_pair(p)

    def test_particle1_z_outcomes_are_unbiased(self):
        terms = oracles.singlet_pair_terms(P_REF)
        up = np.array([1.0, 0.0], dtype=complex)
        dn = np.array([0.0, 1.0], dtype=complex)
        assert oracles.born_probability(terms, up) == pytest.approx(0.5, abs=1e-15)
        assert oracles.born_probability(terms, dn) == pytest.approx(0.5, abs=1e-15)


class TestCollapse:
    def test_z_minus_reproduces_standing_wave_up(self):
        prob, state = collapse(build_entangled_pair(P_REF), MeasurementSpec("z", -1))
        assert prob == pytest.approx(0.5, abs=1e-15)
        plus = _amplitudes(state, +1)
        minus = _amplitudes(state, -1)
        assert plus.amplitude == pytest.approx(+INV_SQRT2, abs=1e-15)
        assert minus.amplitude == pytest.approx(-INV_SQRT2, abs=1e-15)
        for c in (plus, minus):
            np.testing.assert_allclose(c.spin.vector, SPIN_PLUS_Z.vector, atol=1e-15)

    def test_z_plus_flips_the_spin(self):
        prob, state = collapse(build_entangled_pair(P_REF), MeasurementSpec("z", +1))
        assert prob == pytest.approx(0.5, abs=1e-15)
        for c in state.components:
            np.testing.assert_allclose(c.spin.vector, SPIN_MINUS_Z.vector, atol=1e-15)
        assert _amplitudes(state, +1).amplitude == pytest.approx(+INV_SQRT2, abs=1e-15)
        assert _amplitudes(state, -1).amplitude == pytest.approx(-INV_SQRT2, abs=1e-15)

    @pytest.mark.parametrize(
        "outcome,expected_spin", [(-1, SPIN_PLUS_X), (+1, SPIN_MINUS_X)]
    )
    def test_x_collapse_gives_x_polarized_standing_wave(self, outcome, expected_spin):
        prob, state = collapse(
            build_entangled_pair(P_REF), MeasurementSpec("x", outcome)
        )
        assert prob == pytest.approx(0.5, abs=1e-12)
        for c in state.components:
            np.testing.assert_allclose(c.spin.vector, expected_spin.vector, atol=1e-12)
        assert _amplitudes(state, +1).amplitude == pytest.approx(+INV_SQRT2, abs=1e-12)
        assert _amplitudes(state, -1).amplitude == pytest.approx(-INV_SQRT2, abs=1e-12)

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_conditional_states_match_brute_force(self, basis):
        terms = oracles.singlet_pair_terms(P_REF)
        eig = {"z": np.array([0.0, 1.0]), "x": np.array([1.0, -1.0]) / math.sqrt(2)}[
            basis
        ]
        expected = oracles.conditional_particle2(terms, eig.astype(complex))
        _, state = collapse(build_entangled_pair(P_REF), MeasurementSpec(basis, -1))
        got = state.coefficients()
        # compare up to one global phase: align on the +p component
        align = expected[+P_REF][np.argmax(np.abs(expected[+P_REF]))] / got[+P_REF][
            np.argmax(np.abs(expected[+P_REF]))
        ]
        for p_val, vec in expected.items():
            np.testing.assert_allclose(got[p_val] * align, vec, atol=1e-12)

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_opposite_outcomes_are_spin_flips(self, basis):
        _, minus_state = collapse(build_entangled_pair(P_REF), MeasurementSpec(basis, -1))
        _, plus_state = collapse(build_entangled_pair(P_REF), MeasurementSpec(basis, +1))
        for a, b in zip(minus_state.components, plus_state.components):
            assert a.momentum == b.momentum
            assert a.amplitude == pytest.approx(b.amplitude, abs=1e-12)
            assert abs(a.spin.overlap(b.spin)) == pytest.approx(0.0, abs=1e-12)

    def test_remeasuring_projected_branch_is_deterministic(self):
        spec = MeasurementSpec("x", -1)
        _, particle2 = collapse(build_entangled_pair(P_REF), spec)
        # joint state after the first measurement: particle 1 frozen in the
        # measured eigenspinor, particle 2 in its conditional state
        projected = TwoParticleState(
            tuple(
                TwoParticleTerm(
                    c.amplitude,
                    FourMomentum(P_REF),
                    spec.eigenspinor(),
                    c.momentum,
                    c.spin,
                )
                for c in particle2.components
            )
        )
        prob_same, _ = collapse(projected, spec)
        assert prob_same == pytest.approx(1.0, abs=1e-12)
        prob_flip, nothing = collapse(projected, MeasurementSpec("x", +1))
        assert prob_flip == 0.0
        assert nothing is None

    def test_all_four_branches_have_half_probability(self):
        pair = build_entangled_pair(P_REF)
        for basis in ("z", "x"):
            for outcome in (+1, -1):
                prob, _ = collapse(pair, MeasurementSpec(basis, outcome))
                assert prob == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_measurement_spec(self):
        with pytest.raises(ValueError):
            MeasurementSpec("y", 1)
        with pytest.raises(ValueError):
            MeasurementSpec("z", 2)


class TestStandingWave:
    def test_matches_z_collapse_branch(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_Z)
        _, collapsed = collapse(build_entangled_pair(P_REF), MeasurementSpec("z", -1))
        assert abs(state.inner(collapsed)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_x_collapse_branch(self):
        state = standing_wave_state(P_REF, SPIN_PLUS_X)
        _, collapsed = collapse(build_entangled_pair(P_REF), MeasurementSpec("x", -1))
        assert abs(state.inner(collapsed)) == pytest.approx(1.0, abs=1e-12)

    def test_norm_is_one(self):
        assert standing_wave_state(1.3, SPIN_PLUS_X).norm() == pytest.approx(
            1.0, abs=1e-15
        )

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            standing_wave_state(-2.0, SPIN_PLUS_Z)


class TestCenterInterferenceMinimum:
    def test_centered_state_is_untouched(self):
        state = standing_wave_state(2.0, SPIN_PLUS_Z)
        assert center_interference_minimum(state) is state

    def test_phase_offset_gets_removed(self):
        phi = 0.7
        p = 2.0
        shifted = MomentumSpinState(
            (
                StateComponent(
                    FourMomentum(p), SPIN_PLUS_X, INV_SQRT2 * cmath.exp(0.5j * phi)
                ),
                StateComponent(
                    FourMomentum(-p), SPIN_PLUS_X, -INV_SQRT2 * cmath.exp(-0.5j * phi)
                ),
            )
        )
        centered = center_interference_minimum(shifted)
        reference = standing_wave_state(p, SPIN_PLUS_X)
        for got, want in zip(centered.components, reference.components):
            assert got.amplitude == pytest.approx(want.amplitude, abs=1e-14)

    def test_single_component_passthrough(self):
        single = MomentumSpinState(
            (StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, 1.0),)
        )
        assert center_interference_minimum(single) is single

    def test_orthogonal_spinors_have_no_pattern_to_center(self):
        state = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, INV_SQRT2),
                StateComponent(FourMomentum(-1.0), SPIN_MINUS_Z, INV_SQRT2),
            )
        )
        assert center_interference_minimum(state) is state


class TestFringeVisibility:
    def test_common_spin_is_fully_visible(self):
        assert fringe_visibility(standing_wave_state(P_REF, SPIN_PLUS_X)) == 1.0

    def test_single_component_has_no_fringes(self):
        single = MomentumSpinState(
            (StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, 1.0),)
        )
        assert fringe_visibility(single) == 0.0

    def test_orthogonal_spinors_have_no_fringes(self):
        state = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, INV_SQRT2),
                StateComponent(FourMomentum(-1.0), SPIN_MINUS_Z, INV_SQRT2),
            )
        )
        assert fringe_visibility(state) == 0.0

    def test_unequal_weights_and_tilted_spin(self):
        # V = 2 |a_1 a_2| |<chi_2|chi_1>| / (|a_1|^2 + |a_2|^2)
        tilt = 0.4
        tilted = Spinor(math.cos(tilt), math.sin(tilt))
        state = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, 0.6),
                StateComponent(FourMomentum(-1.0), tilted, 0.8j),
            )
        )
        assert fringe_visibility(state) == pytest.approx(
            2.0 * 0.6 * 0.8 * math.cos(tilt), abs=1e-15
        )

    def test_translation_leaves_it_unchanged(self):
        _, state = collapse(build_entangled_pair(P_REF), MeasurementSpec("z", -1))
        tilted = MomentumSpinState(
            tuple(
                StateComponent(c.momentum, Spinor(math.cos(0.3), math.sin(0.3)), c.amplitude)
                if c.momentum.p > 0
                else c
                for c in state.components
            )
        )
        before = fringe_visibility(tilted)
        assert fringe_visibility(tilted.translated(0.37)) == pytest.approx(before, abs=1e-15)
        assert fringe_visibility(center_interference_minimum(tilted)) == pytest.approx(
            before, abs=1e-15
        )

    def test_three_components_are_rejected(self):
        state = MomentumSpinState(
            tuple(
                StateComponent(FourMomentum(p), SPIN_PLUS_Z, 1.0 / math.sqrt(3.0))
                for p in (-1.0, 0.5, 1.0)
            )
        )
        with pytest.raises(ValueError):
            fringe_visibility(state)
