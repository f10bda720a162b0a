import math

import numpy as np
import pytest

from spinboost import (
    BoostParameter,
    DetectorSpec,
    FourMomentum,
    MeasurementSpec,
    PreparationContext,
    UniformGrid,
    boost_linear,
    boost_physical,
    build_entangled_pair,
    center_interference_minimum,
    collapse,
    density,
    detection_curve,
    detection_ratio,
    fringe_visibility,
    ratio_report,
    signaling_discriminator,
    small_velocity_approx,
    synthesize_discrete,
    wigner_angle,
)

import oracles


def _visibility(a, b):
    """Fringe visibility of a density a*sin(p y)**2 + b*cos(p y)**2."""
    return (a - b) / (a + b)


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


class TestDetectionCurve:
    def test_flat_density_is_position_independent(self):
        grid = UniformGrid(-60.0, 60.0, 6001)
        probs = detection_curve(0.7, 0.0, DetectorSpec(2.0), grid)
        assert probs.max() - probs.min() == pytest.approx(0.0, abs=1e-12)
        assert probs[0] == pytest.approx(1.0 / 120.0, rel=1e-9)

    def test_sine_profile_at_origin_matches_closed_form(self):
        grid = UniformGrid.standing_wave(1.0)
        probs = detection_curve(1.0, 1.0, DetectorSpec(1.0), grid)
        # window-normalized density: sin^2 / (window/2)
        window = grid.hi - grid.lo
        expected = (1.0 - math.exp(-1.0)) / 2.0 * (2.0 / window)
        assert probs[grid.n_points // 2] == pytest.approx(expected, rel=1e-6)

    def test_sine_profile_at_quarter_period(self):
        grid = UniformGrid.standing_wave(1.0)
        probs = detection_curve(1.0, 1.0, DetectorSpec(1.0), grid)
        index = int(np.argmin(np.abs(grid.points - math.pi / 2.0)))
        assert grid.points[index] == pytest.approx(math.pi / 2.0, abs=1e-12)
        window = grid.hi - grid.lo
        expected = (1.0 + math.exp(-1.0)) / 2.0 * (2.0 / window)
        assert probs[index] == pytest.approx(expected, rel=1e-6)

    # the brute-force sum needs the kernel resolved (w / dy >= 20 here) and
    # held by the window: centers keep 6 widths from the edges, beyond which
    # the kernel mass is erfc(6) / 2 = 1e-17
    @pytest.mark.parametrize("gamma_p", [1.05, 1.2, 2.0])
    @pytest.mark.parametrize("w", [1.0, 2.5])
    @pytest.mark.parametrize("branch", ["z", "x", "physical"])
    def test_matches_brute_force_quadrature(self, gamma_p, w, branch):
        momentum = FourMomentum.from_gamma(gamma_p)
        boost = BoostParameter.from_gamma(10.0)
        basis = "x" if branch == "x" else "z"
        _, state = collapse(build_entangled_pair(momentum.p), MeasurementSpec(basis, -1))
        if branch == "physical":
            state = boost_physical(state, boost, PreparationContext.MINUS_Y)
        else:
            state = boost_linear(state, boost)
        grid = UniformGrid.standing_wave(momentum.p, half_periods=32, n_points=8193)
        assert w / grid.spacing >= 20.0
        dens = density(synthesize_discrete(center_interference_minimum(state), grid))
        det = DetectorSpec(w)
        curve = detection_curve(momentum.p, fringe_visibility(state), det, grid)
        interior = np.flatnonzero(np.abs(grid.points) <= grid.hi - 6.0 * w)[::16]
        brute = oracles.trapezoid_detection(
            grid.points, dens.values, w, grid.points[interior]
        )
        # tolerance: the rounding of an 8193-term sum, about n * eps of the peak
        np.testing.assert_allclose(curve[interior], brute, rtol=0, atol=1e-12 * curve.max())


class TestDetectionRatio:
    def test_pure_sine_matches_the_gaussian_integral_oracle(self):
        ratio = detection_ratio(1.0, 1.0, DetectorSpec(1.0))
        expected = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
        assert ratio == pytest.approx(expected, abs=1e-6)
        assert ratio == pytest.approx(
            oracles.standing_wave_ratio(1.0, 0.0, 1.0, 1.0), abs=1e-6
        )

    def test_peak_sits_at_the_quarter_period(self):
        p = 0.75
        det = DetectorSpec(1.0)
        grid = UniformGrid.standing_wave(p)
        curve = detection_curve(p, 1.0, det, grid)
        y_m = ratio_report(p, 1.0, 1.0, det, 10.0, 0.1).y_m
        assert abs(y_m) == pytest.approx(math.pi / (2.0 * p), abs=grid.spacing)
        index = int(np.argmin(np.abs(grid.points - y_m)))
        assert curve[index] == pytest.approx(curve.max(), rel=1e-12)
        origin = curve[grid.n_points // 2]
        assert detection_ratio(p, 1.0, det) == pytest.approx(
            origin / curve[index], rel=1e-12
        )

    # a >= b: the profile peaks at the quarter period, as in every branch the
    # rotation can produce (the mixing weight never exceeds sin(pi/4)**2)
    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.93, 0.07), (0.6, 0.4), (0.5, 0.5)])
    @pytest.mark.parametrize("p,w", [(1.0, 1.0), (0.66, 1.5), (2.0, 1.0)])
    def test_oracle_equivalence_on_mixed_profiles(self, a, b, p, w):
        ratio = detection_ratio(p, _visibility(a, b), DetectorSpec(w))
        assert ratio == pytest.approx(
            oracles.standing_wave_ratio(a, b, p, w), abs=1e-6
        )

    def test_mixed_profile_exceeds_pure_profile(self):
        pure = detection_ratio(1.0, 1.0, DetectorSpec(1.0))
        mixed = detection_ratio(1.0, _visibility(0.93, 0.07), DetectorSpec(1.0))
        assert mixed > pure

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
    GRID = UniformGrid.standing_wave(1.0)

    def test_identical_visibilities_give_zero(self):
        report = signaling_discriminator(1.0, 1.0, 1.0, DetectorSpec(1.0), self.GRID)
        assert report.sup_gap == 0.0
        assert report.ratio_gap == 0.0

    def test_mixed_vs_pure_profile_is_detectable(self):
        report = signaling_discriminator(
            1.0, _visibility(0.93, 0.07), 1.0, DetectorSpec(1.0), self.GRID
        )
        assert report.sup_gap > 1e-5
        assert report.r_psi > report.r_phi

    def test_sup_gap_is_the_largest_curve_gap(self):
        det = DetectorSpec(1.2)
        vis_psi = _visibility(0.93, 0.07)
        report = signaling_discriminator(1.0, vis_psi, 1.0, det, self.GRID)
        gap = detection_curve(1.0, vis_psi, det, self.GRID) - detection_curve(
            1.0, 1.0, det, self.GRID
        )
        assert report.sup_gap == pytest.approx(float(np.max(np.abs(gap))), rel=1e-12)


class TestRatioReport:
    def test_field_assembly(self):
        report = ratio_report(
            1.0, _visibility(0.93, 0.07), 1.0, DetectorSpec(1.0), 10.0, 0.1
        )
        assert report.ratio_of_ratios == pytest.approx(
            report.r_psi / report.r_phi, rel=1e-15
        )
        approx_r_phi, approx_ratio = small_velocity_approx(10.0, 0.1, 1.0)
        assert report.approx_r_phi == approx_r_phi
        assert report.approx_ratio == approx_ratio
        assert abs(report.y_m) == pytest.approx(math.pi / 2.0, abs=1e-3)
