import math

import numpy as np
import pytest

import oracles
from spinboost import (
    BoostParameter,
    FourMomentum,
    GaussianPacketSpec,
    KFactor,
    MeasurementSpec,
    MomentumSpinState,
    PreparationContext,
    SPIN_PLUS_X,
    SPIN_PLUS_Z,
    StateComponent,
    UniformGrid,
    boost_linear,
    boost_physical,
    build_entangled_pair,
    center_interference_minimum,
    collapse,
    density,
    standing_wave_state,
    synthesize_discrete,
    synthesize_gaussian,
    wigner_angle,
)
from spinboost.wavefunction import _fourier_synthesis

P_REF = FourMomentum.from_gamma(1.2).p
BOOST = BoostParameter.from_gamma(10.0)
PHI = wigner_angle(FourMomentum(P_REF), BOOST)
GRID = UniformGrid.standing_wave(P_REF)


def _window_length(grid):
    return grid.hi - grid.lo


def _branch(basis, outcome, recenter=True):
    _, state = collapse(build_entangled_pair(P_REF), MeasurementSpec(basis, outcome))
    state = boost_linear(state, BOOST)
    if recenter:
        state = center_interference_minimum(state)
    return density(synthesize_discrete(state, GRID))


class TestGrids:
    def test_spacing_and_points(self):
        grid = UniformGrid(-1.0, 1.0, 5)
        assert grid.spacing == 0.5
        np.testing.assert_allclose(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert grid.trapezoid_weights().sum() == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_points(self, n):
        with pytest.raises(ValueError):
            UniformGrid(0.0, 1.0, n)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            UniformGrid(1.0, 1.0, 8)

    def test_standing_wave_grid_hits_pattern_landmarks(self):
        y = GRID.points
        assert y[2048] == 0.0
        # zeros of sin(p y) every 512 steps, extrema halfway between
        for k in (-4, -1, 0, 2, 4):
            assert abs(math.sin(P_REF * y[2048 + 512 * k])) < 1e-12
        for k in (-3, 1, 5):
            assert abs(math.cos(P_REF * y[2048 + 256 * k])) < 1e-12

    def test_momentum_grid_for_packet(self):
        p_grid = UniformGrid.for_packet(2.0)
        assert p_grid.lo == -4.0 and p_grid.hi == 4.0
        assert p_grid.n_points == 4096


class TestSynthesizeDiscrete:
    def test_plain_standing_wave_is_a_sine(self):
        wavefunction = synthesize_discrete(
            standing_wave_state(P_REF, SPIN_PLUS_Z), GRID
        )
        y = GRID.points
        expected = np.sin(P_REF * y) ** 2 * 2.0 / _window_length(GRID)
        np.testing.assert_allclose(np.abs(wavefunction.up) ** 2, expected, atol=1e-13)
        np.testing.assert_allclose(wavefunction.down, 0.0, atol=1e-15)

    def test_boosted_z_branch_mixes_components(self):
        state = boost_linear(standing_wave_state(P_REF, SPIN_PLUS_Z), BOOST)
        wavefunction = synthesize_discrete(state, GRID)
        y = GRID.points
        scale = 2.0 / _window_length(GRID)
        c2 = math.cos(PHI / 2) ** 2
        s2 = math.sin(PHI / 2) ** 2
        np.testing.assert_allclose(
            np.abs(wavefunction.up) ** 2, c2 * np.sin(P_REF * y) ** 2 * scale, atol=1e-13
        )
        np.testing.assert_allclose(
            np.abs(wavefunction.down) ** 2,
            s2 * np.cos(P_REF * y) ** 2 * scale,
            atol=1e-13,
        )

    def test_outcome_flip_swaps_component_roles(self):
        _, state = collapse(build_entangled_pair(P_REF), MeasurementSpec("z", +1))
        wavefunction = synthesize_discrete(boost_linear(state, BOOST), GRID)
        y = GRID.points
        scale = 2.0 / _window_length(GRID)
        c2 = math.cos(PHI / 2) ** 2
        s2 = math.sin(PHI / 2) ** 2
        np.testing.assert_allclose(
            np.abs(wavefunction.up) ** 2, s2 * np.cos(P_REF * y) ** 2 * scale, atol=1e-13
        )
        np.testing.assert_allclose(
            np.abs(wavefunction.down) ** 2,
            c2 * np.sin(P_REF * y) ** 2 * scale,
            atol=1e-13,
        )

    def test_unequal_magnitudes_point_to_quadrature(self):
        mixed = MomentumSpinState(
            (
                StateComponent(FourMomentum(1.0), SPIN_PLUS_Z, 1 / math.sqrt(2)),
                StateComponent(FourMomentum(2.0), SPIN_PLUS_Z, 1 / math.sqrt(2)),
            )
        )
        with pytest.raises(ValueError, match="quadrature"):
            synthesize_discrete(mixed, GRID)

    def test_density_integrates_to_one(self):
        dens = _branch("z", -1)
        assert dens.integral() == pytest.approx(1.0, abs=1e-8)


class TestDensityIdentities:
    def test_both_z_outcomes_share_one_density(self):
        minus = _branch("z", -1, recenter=False)
        plus = _branch("z", +1, recenter=False)
        np.testing.assert_allclose(minus.values, plus.values, atol=1e-12)

    def test_both_x_outcomes_share_one_density_after_centering(self):
        minus = _branch("x", -1)
        plus = _branch("x", +1)
        np.testing.assert_allclose(minus.values, plus.values, atol=1e-12)

    def test_centered_x_branch_has_zeros_on_the_sine_lattice(self):
        dens = _branch("x", -1)
        y = GRID.points
        expected = np.sin(P_REF * y) ** 2 * 2.0 / _window_length(GRID)
        np.testing.assert_allclose(dens.values, expected, atol=1e-13)

    def test_uncentered_x_branch_is_the_same_pattern_translated(self):
        dens = _branch("x", -1, recenter=False)
        y = GRID.points
        shifted = np.sin(P_REF * y + PHI / 2) ** 2 * 2.0 / _window_length(GRID)
        np.testing.assert_allclose(dens.values, shifted, atol=1e-12)

    def test_visibility_of_the_mixed_branch(self):
        dens = _branch("z", -1)
        ratio = dens.values.min() / dens.values.max()
        assert ratio == pytest.approx(math.tan(PHI / 2) ** 2, abs=1e-6)

    def test_physical_map_keeps_the_rest_frame_density(self):
        base = standing_wave_state(P_REF, SPIN_PLUS_Z)
        reference = density(synthesize_discrete(base, GRID))
        for prep in (
            PreparationContext.PLUS_Y,
            PreparationContext.MINUS_Y,
            PreparationContext.CONFINED,
        ):
            moved = boost_physical(base, BOOST, prep)
            dens = density(synthesize_discrete(moved, GRID))
            np.testing.assert_allclose(dens.values, reference.values, atol=1e-12)

    def test_opposite_preparations_share_one_density(self):
        base = standing_wave_state(P_REF, SPIN_PLUS_X)
        plus = boost_physical(base, BOOST, PreparationContext.PLUS_Y)
        minus = boost_physical(base, BOOST, PreparationContext.MINUS_Y)
        # the preparations differ by a rotation of 2*phi; on an x eigenstate
        # that is the pure phase exp(-i*phi), so the rays coincide
        for a, b in zip(plus.components, minus.components):
            assert complex(a.spin.overlap(b.spin)) == pytest.approx(
                complex(math.cos(PHI), -math.sin(PHI)), abs=1e-14
            )
        dens_plus = density(synthesize_discrete(plus, GRID))
        dens_minus = density(synthesize_discrete(minus, GRID))
        np.testing.assert_allclose(dens_plus.values, dens_minus.values, atol=1e-12)

    def test_physical_map_is_basis_blind(self):
        results = []
        for basis in ("z", "x"):
            _, state = collapse(build_entangled_pair(P_REF), MeasurementSpec(basis, -1))
            state = boost_physical(state, BOOST, PreparationContext.MINUS_Y)
            state = center_interference_minimum(state)
            results.append(density(synthesize_discrete(state, GRID)).values)
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)


class TestSynthesizeGaussian:
    def test_unboosted_packet_is_a_gaussian(self):
        width = 1.0
        wavefunction = synthesize_gaussian(
            GaussianPacketSpec(width, SPIN_PLUS_Z, KFactor.UNITY)
        )
        y = wavefunction.grid.points
        expected = np.exp(-(y**2) / width**2) / (width * math.sqrt(math.pi))
        np.testing.assert_allclose(
            density(wavefunction).values, expected, atol=1e-8
        )
        np.testing.assert_allclose(wavefunction.down, 0.0, atol=1e-15)

    def test_boost_none_equals_zero_beta(self):
        spec = GaussianPacketSpec(1.0, SPIN_PLUS_Z)
        a = synthesize_gaussian(spec, None)
        b = synthesize_gaussian(spec, BoostParameter(0.0))
        np.testing.assert_array_equal(a.up, b.up)
        np.testing.assert_array_equal(a.down, b.down)

    def test_x_polarized_packet_stays_on_the_x_ray_pointwise(self):
        wavefunction = synthesize_gaussian(
            GaussianPacketSpec(1.0, SPIN_PLUS_X), BoostParameter(0.995)
        )
        np.testing.assert_allclose(wavefunction.up, wavefunction.down, atol=1e-12)

    def test_z_polarized_packet_grows_a_flipped_component(self):
        wavefunction = synthesize_gaussian(
            GaussianPacketSpec(1.0, SPIN_PLUS_Z), BoostParameter(0.995)
        )
        assert np.max(np.abs(wavefunction.down)) > 0.01

    def test_normalization_and_parseval(self):
        for k_factor in KFactor:
            wavefunction = synthesize_gaussian(
                GaussianPacketSpec(1.0, SPIN_PLUS_Z, k_factor), BoostParameter(0.995)
            )
            assert wavefunction.norm_integral() == pytest.approx(1.0, abs=1e-8)
            assert wavefunction.meta["parseval_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_narrow_quadrature_range_is_flagged(self):
        spec = GaussianPacketSpec(1.0, SPIN_PLUS_Z)
        with pytest.warns(UserWarning, match="edge amplitude"):
            wavefunction = synthesize_gaussian(
                spec, None, p_grid=UniformGrid(-2.0, 2.0, 512)
            )
        assert wavefunction.meta["range_truncated"]

    def test_comfortable_range_is_not_flagged(self):
        wavefunction = synthesize_gaussian(GaussianPacketSpec(1.0, SPIN_PLUS_Z))
        assert not wavefunction.meta["range_truncated"]
        assert wavefunction.meta["edge_amplitude_ratio"] < 1e-8

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            GaussianPacketSpec(0.0, SPIN_PLUS_Z)


class TestFourierSynthesis:
    """The chirp-z sum against the brute-force sum of ``oracles``."""

    @staticmethod
    def _assert_matches(y_grid, p_grid):
        rng = np.random.default_rng(y_grid.n_points * p_grid.n_points)
        shape = (2, p_grid.n_points)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _fourier_synthesis(y_grid, p_grid, g)
        want = oracles.fourier_sum(y_grid.points, p_grid.points, g)
        for row_got, row_want in zip(got, want):
            peak = np.max(np.abs(row_want))
            assert np.max(np.abs(row_got - row_want)) <= 1e-12 * peak

    # lopsided shapes drive the chirp phase to ~1e7 rad
    @pytest.mark.parametrize(
        "n_y,n_p",
        [(2, 4096), (4096, 2), (4097, 33), (33, 4097), (4096, 4096), (2, 65536), (65536, 64)],
    )
    def test_matches_the_brute_force_sum(self, n_y, n_p):
        self._assert_matches(
            UniformGrid(-8.0, 8.0, n_y), UniformGrid.for_packet(1.0, n_points=n_p)
        )

    def test_offset_windows_match_the_brute_force_sum(self):
        self._assert_matches(UniformGrid(-3.0, 40.0, 1000), UniformGrid(0.5, 7.0, 777))

    @pytest.mark.parametrize("k_factor", list(KFactor))
    def test_boosted_packet_matches_the_brute_force_sum(self, k_factor):
        beta = 0.995
        wavefunction = synthesize_gaussian(
            GaussianPacketSpec(1.0, SPIN_PLUS_Z, k_factor), BoostParameter(beta)
        )
        # the quadrature formula from its parts: trapezoid weights, K factor,
        # Gaussian amplitude and the signed half-angle of each momentum,
        # applied to the spin-up spinor
        y = np.linspace(-8.0, 8.0, 4096)
        p = np.linspace(-8.0, 8.0, 4096)
        weights = np.full(p.size, p[1] - p[0])
        weights[[0, -1]] *= 0.5
        k = (1.0 + p**2) ** -0.25 if k_factor is KFactor.SQRT_M_OVER_P0 else 1.0
        envelope = weights * k * np.exp(-0.5 * p**2)
        gamma_p, gamma_beta = np.sqrt(1.0 + p**2), 1.0 / math.sqrt(1.0 - beta**2)
        sin_half = np.sign(p) * np.sqrt(
            (gamma_p - 1.0) * (gamma_beta - 1.0) / (2.0 * (1.0 + gamma_p * gamma_beta))
        )
        cos_half = np.sqrt(1.0 - sin_half**2)
        up, down = oracles.fourier_sum(
            y, p, np.stack([envelope * cos_half, 1j * envelope * sin_half])
        )
        raw = np.abs(up) ** 2 + np.abs(down) ** 2
        scale = 1.0 / math.sqrt((y[1] - y[0]) * (np.sum(raw) - 0.5 * (raw[0] + raw[-1])))
        peak = np.max(np.abs(up)) * scale
        assert np.max(np.abs(wavefunction.up - up * scale)) <= 1e-12 * peak
        assert np.max(np.abs(wavefunction.down - down * scale)) <= 1e-12 * peak


class TestDensityOp:
    def test_density_is_pointwise_square_modulus(self):
        wavefunction = synthesize_discrete(
            boost_linear(standing_wave_state(P_REF, SPIN_PLUS_Z), BOOST), GRID
        )
        dens = density(wavefunction)
        np.testing.assert_allclose(
            dens.values,
            np.abs(wavefunction.up) ** 2 + np.abs(wavefunction.down) ** 2,
            atol=0.0,
        )
        assert dens.integral() == pytest.approx(1.0, abs=1e-8)
