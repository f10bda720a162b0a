import math

import numpy as np
import pytest

from spinboost import (
    BoostParameter,
    Density,
    DetectorSpec,
    FourMomentum,
    UniformGrid,
    boost_linear,
    density,
    detection_curve,
    detection_probability,
    detection_ratio,
    ratio_report,
    signaling_discriminator,
    small_velocity_approx,
    standing_wave_state,
    synthesize_discrete,
    wigner_angle,
)

import oracles


def _standing_density(p, a=1.0, b=0.0, half_periods=8, n_points=4097):
    """Normalized density a*sin(p y)**2 + b*cos(p y)**2 on a clean window."""
    grid = UniformGrid.standing_wave(p, half_periods, n_points)
    y = grid.points
    values = a * np.sin(p * y) ** 2 + b * np.cos(p * y) ** 2
    values /= np.sum(grid.trapezoid_weights() * values)
    return Density(grid, values)


def _uniform_density(grid):
    values = np.full(grid.n_points, 1.0 / (grid.hi - grid.lo))
    return Density(grid, values)


class TestDetectorSpec:
    def test_rejects_sub_compton_width(self):
        with pytest.raises(ValueError):
            DetectorSpec(0.99)

    def test_warns_close_to_the_limit(self):
        with pytest.warns(UserWarning, match="localization"):
            DetectorSpec(1.02)

    def test_comfortable_width_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DetectorSpec(1.5)

    def test_kernel_has_unit_mass_on_wide_grids(self):
        det = DetectorSpec(2.0)
        grid = UniformGrid(-12.0, 12.0, 4001)  # spans 6 widths
        mass = float(np.sum(grid.trapezoid_weights() * det.kernel(grid.points)))
        assert mass == pytest.approx(1.0, abs=1e-10)


class TestDetectionProbability:
    def test_flat_density_is_position_independent(self):
        grid = UniformGrid(-60.0, 60.0, 6001)
        dens = _uniform_density(grid)
        det = DetectorSpec(2.0)
        probs = [detection_probability(dens, det, y_c) for y_c in (-10.0, 0.0, 7.5)]
        assert max(probs) - min(probs) == pytest.approx(0.0, abs=1e-12)
        assert probs[0] == pytest.approx(1.0 / 120.0, rel=1e-9)

    def test_sine_profile_at_origin_matches_closed_form(self):
        p = 1.0
        dens = _standing_density(p)
        det = DetectorSpec(1.0)
        # window-normalized density: sin^2 / (window/2)
        window = dens.grid.hi - dens.grid.lo
        expected = (1.0 - math.exp(-1.0)) / 2.0 * (2.0 / window)
        assert detection_probability(dens, det, 0.0) == pytest.approx(
            expected, rel=1e-6
        )

    def test_sine_profile_at_quarter_period(self):
        p = 1.0
        dens = _standing_density(p)
        det = DetectorSpec(1.0)
        window = dens.grid.hi - dens.grid.lo
        expected = (1.0 + math.exp(-1.0)) / 2.0 * (2.0 / window)
        assert detection_probability(dens, det, math.pi / 2.0) == pytest.approx(
            expected, rel=1e-6
        )

    def test_far_center_warns_about_truncation(self):
        dens = _standing_density(1.0)
        det = DetectorSpec(1.0)
        with pytest.warns(UserWarning, match="truncated"):
            detection_probability(dens, det, dens.grid.hi + 4.0)

    def test_curve_matches_pointwise_evaluation(self):
        dens = _standing_density(1.3, a=0.8, b=0.2)
        det = DetectorSpec(1.2)
        centers = np.linspace(-2.0, 2.0, 17)
        curve = detection_curve(dens, det, centers)
        singles = [detection_probability(dens, det, c) for c in centers]
        np.testing.assert_allclose(curve, singles, atol=1e-15)


class TestDetectionRatio:
    def test_pure_sine_matches_the_gaussian_integral_oracle(self):
        dens = _standing_density(1.0)
        result = detection_ratio(dens, DetectorSpec(1.0))
        expected = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
        assert result.ratio == pytest.approx(expected, abs=1e-6)
        assert result.ratio == pytest.approx(
            oracles.standing_wave_ratio(1.0, 0.0, 1.0, 1.0), abs=1e-6
        )

    def test_peak_sits_at_the_quarter_period(self):
        p = 0.75
        dens = _standing_density(p)
        result = detection_ratio(dens, DetectorSpec(1.0))
        assert abs(result.peak_location) == pytest.approx(
            math.pi / (2.0 * p), abs=dens.grid.spacing
        )

    # a >= b: the profile peaks at the quarter period, as in every branch the
    # rotation can produce (the mixing weight never exceeds sin(pi/4)**2)
    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.93, 0.07), (0.6, 0.4), (0.5, 0.5)])
    @pytest.mark.parametrize("p,w", [(1.0, 1.0), (0.66, 1.5), (2.0, 1.0)])
    def test_oracle_equivalence_on_mixed_profiles(self, a, b, p, w):
        dens = _standing_density(p, a, b)
        result = detection_ratio(dens, DetectorSpec(w))
        assert result.ratio == pytest.approx(
            oracles.standing_wave_ratio(a, b, p, w), abs=1e-6
        )

    def test_mixed_profile_exceeds_pure_profile(self):
        pure = detection_ratio(_standing_density(1.0), DetectorSpec(1.0))
        mixed = detection_ratio(_standing_density(1.0, 0.93, 0.07), DetectorSpec(1.0))
        assert mixed.ratio > pure.ratio

    def test_ratio_of_ratios_grows_with_the_rotation_angle(self):
        # oracle-level monotonicity of the mixing effect
        p, w = 1.0, 1.0
        pure = oracles.standing_wave_ratio(1.0, 0.0, p, w)
        previous = 1.0
        for phi in np.linspace(0.1, 1.5, 15):
            mixed = oracles.standing_wave_ratio(
                math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2, p, w
            )
            current = mixed / pure
            assert current > previous
            previous = current

    def test_all_zero_density_has_no_interior_peak(self):
        grid = UniformGrid(-1.0, 1.0, 101)
        with pytest.raises(ValueError):
            detection_ratio(Density(grid, np.zeros(101)), DetectorSpec(1.0))

    def test_edge_peak_is_rejected(self):
        grid = UniformGrid(-1.0, 1.0, 101)
        values = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="interior"):
            detection_ratio(Density(grid, values), DetectorSpec(1.0))


class TestSmallVelocityApprox:
    def test_direct_substitution(self):
        r_phi, _ = small_velocity_approx(10.0, 0.1, 2.0)
        assert r_phi == pytest.approx(0.02, abs=1e-15)

    def test_no_boost_means_no_effect(self):
        _, ratio = small_velocity_approx(1.0, 0.1, 1.0)
        assert ratio == 1.0

    def test_limit_of_large_boost_at_compton_width(self):
        _, ratio = small_velocity_approx(1e9, 0.01, 1.0)
        assert ratio == pytest.approx(1.5, abs=1e-8)

    def test_rejects_subluminal_gamma(self):
        with pytest.raises(ValueError):
            small_velocity_approx(0.5, 0.1, 1.0)

    @pytest.mark.parametrize("v", [0.05, 0.1])
    @pytest.mark.parametrize("w", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("gamma_beta", [2.0, 10.0, 1000.0])
    def test_exact_ratios_approach_the_approximants(self, v, w, gamma_beta):
        momentum = FourMomentum.from_speed(v)
        boost = BoostParameter.from_gamma(gamma_beta)
        phi = wigner_angle(momentum, boost)
        p = momentum.p
        exact_r_phi = oracles.standing_wave_ratio(1.0, 0.0, p, w)
        exact_r_psi = oracles.standing_wave_ratio(
            math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2, p, w
        )
        approx_r_phi, approx_ratio = small_velocity_approx(gamma_beta, v, w)
        assert exact_r_phi == pytest.approx(approx_r_phi, rel=0.10)
        assert exact_r_psi / exact_r_phi == pytest.approx(approx_ratio, rel=0.05)


class TestSignalingDiscriminator:
    def _boosted_density(self, spin, grid):
        state = boost_linear(standing_wave_state(1.0, spin), BoostParameter(0.9))
        return density(synthesize_discrete(state, grid))

    def test_identical_densities_give_zero(self):
        dens = _standing_density(1.0)
        report = signaling_discriminator(dens, dens, DetectorSpec(1.0))
        assert report.sup_gap == 0.0
        assert report.ratio_gap == 0.0

    def test_mismatched_grids_are_rejected(self):
        a = _standing_density(1.0, n_points=4097)
        b = _standing_density(1.0, n_points=2049)
        with pytest.raises(ValueError, match="grid"):
            signaling_discriminator(a, b, DetectorSpec(1.0))

    def test_mixed_vs_pure_profile_is_detectable(self):
        dens_psi = _standing_density(1.0, 0.93, 0.07)
        dens_phi = _standing_density(1.0)
        report = signaling_discriminator(dens_psi, dens_phi, DetectorSpec(1.0))
        assert report.sup_gap > 1e-5
        assert report.r_psi > report.r_phi


class TestRatioReport:
    def test_field_assembly(self):
        dens_psi = _standing_density(1.0, 0.93, 0.07)
        dens_phi = _standing_density(1.0)
        report = ratio_report(dens_psi, dens_phi, DetectorSpec(1.0), 10.0, 0.1)
        assert report.ratio_of_ratios == pytest.approx(
            report.r_psi / report.r_phi, rel=1e-15
        )
        approx_r_phi, approx_ratio = small_velocity_approx(10.0, 0.1, 1.0)
        assert report.approx_r_phi == approx_r_phi
        assert report.approx_ratio == approx_ratio
        assert abs(report.y_m) == pytest.approx(math.pi / 2.0, abs=1e-3)
