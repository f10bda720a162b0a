"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing the stated tolerance."""

import json
import math

import numpy as np
import pytest

from spinboost import (
    BoostParameter,
    DetectorSpec,
    FourMomentum,
    MeasurementSpec,
    MomentumSpinState,
    PreparationContext,
    SPIN_PLUS_Z,
    Spinor,
    StateComponent,
    UniformGrid,
    boost_linear,
    boost_physical,
    build_entangled_pair,
    center_interference_minimum,
    collapse,
    density,
    detection_ratio,
    fringe_visibility,
    signaling_discriminator,
    standing_wave_state,
    synthesize_discrete,
    wigner_angle,
    wigner_half_angle_sine,
    wigner_rotation,
)
from spinboost import cli

import oracles


def _report(num, description, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def _linear_state(momentum, boost, basis, outcome):
    _, state = collapse(build_entangled_pair(momentum.p), MeasurementSpec(basis, outcome))
    return boost_linear(state, boost)


def _physical_state(momentum, boost, basis, prep):
    _, state = collapse(build_entangled_pair(momentum.p), MeasurementSpec(basis, -1))
    return boost_physical(state, boost, prep)


def _density(state, grid):
    return density(synthesize_discrete(center_interference_minimum(state), grid))


def test_criterion_1_wigner_half_angle_reference_value():
    got = wigner_half_angle_sine(1.2, 10.0)
    want = oracles.half_angle_sine_mp(1.2, 10.0)
    _report(
        1,
        "half-angle sine at (1.2, 10) matches the high-precision oracle to 1e-9",
        abs(got - want) <= 1e-9,
        f" [got {got!r}, oracle {want!r}]",
    )


def _exact_ratio_of_ratios(gamma_beta, v, w):
    momentum = FourMomentum.from_speed(v)
    boost = BoostParameter.from_gamma(gamma_beta)
    det = DetectorSpec(w)
    r_psi, r_phi = (
        detection_ratio(
            momentum.p, fringe_visibility(_linear_state(momentum, boost, basis, -1)), det
        )
        for basis in ("z", "x")
    )
    return r_psi / r_phi


def test_criterion_2_small_velocity_limit():
    limit = 1.0 + 999.0 / (2.0 * 1001.0)
    ratios = {v: _exact_ratio_of_ratios(1000.0, v, 1.0) for v in (0.1, 0.05, 0.02)}
    within = abs(ratios[0.05] - limit) <= 0.05 * limit
    gaps = [abs(ratios[v] - limit) for v in (0.1, 0.05, 0.02)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    _report(
        2,
        "exact ratio of ratios approaches 1.4990 as the superposed momenta slow",
        within and monotone,
        f" [ratios {ratios}, limit {limit:.6f}]",
    )


def test_criterion_3_closed_form_detection_oracle():
    p = 1.0
    visibility = fringe_visibility(standing_wave_state(p, SPIN_PLUS_Z))
    got = detection_ratio(p, visibility, DetectorSpec(1.0))
    want = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
    _report(
        3,
        "pure standing-wave ratio at p*w = 1 equals (1-1/e)/(1+1/e) to 1e-6",
        abs(got - want) <= 1e-6,
        f" [got {got!r}, oracle {want!r}]",
    )


def test_criterion_4_first_figure_reproduction(tmp_path):
    code = cli.main(["figure1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "figure1.csv").read_text().splitlines()
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    y, phi, psi = data.T
    report = json.loads((tmp_path / "figure1_report.json").read_text())
    p = report["kinematics"]["p"]

    step = y[1] - y[0]
    zeros_ok = True
    for n in range(-3, 4):
        idx = int(np.argmin(np.abs(y - n * math.pi / p)))
        zeros_ok &= abs(y[idx] - n * math.pi / p) <= step
        zeros_ok &= phi[idx] <= 1e-10 * phi.max()

    contrast = psi.min() / psi.max()
    contrast_ok = abs(contrast - 9.0 / 121.0) <= 1e-6

    peak = max(psi.max(), phi.max())
    gap_ok = np.max(np.abs(psi - phi)) > 0.05 * peak

    _report(
        4,
        "first figure: pure curve zeroes on the sine lattice, mixed curve "
        "contrast 0.074380, visibly distinct curves",
        zeros_ok and contrast_ok and gap_ok,
        f" [contrast {contrast!r}, gap/peak "
        f"{np.max(np.abs(psi - phi)) / peak:.4f}]",
    )


def test_criterion_5_physical_mode_never_signals():
    momentum = FourMomentum.from_gamma(1.2)
    boost = BoostParameter.from_gamma(10.0)
    grid = UniformGrid.standing_wave(momentum.p)
    det = DetectorSpec(1.0)
    worst_density = 0.0
    worst_curve = 0.0
    for prep in (
        PreparationContext.PLUS_Y,
        PreparationContext.MINUS_Y,
        PreparationContext.CONFINED,
    ):
        state_z = _physical_state(momentum, boost, "z", prep)
        state_x = _physical_state(momentum, boost, "x", prep)
        dens_z = _density(state_z, grid)
        dens_x = _density(state_x, grid)
        worst_density = max(worst_density, float(np.max(np.abs(dens_z.values - dens_x.values))))
        sig = signaling_discriminator(
            momentum.p, fringe_visibility(state_z), fringe_visibility(state_x), det, grid
        )
        worst_curve = max(worst_curve, sig.sup_gap)
    _report(
        5,
        "preparation-aware map: basis choice leaves densities and every "
        "detector position statistic unchanged (1e-12)",
        worst_density <= 1e-12 and worst_curve <= 1e-12,
        f" [max density gap {worst_density:.3e}, max curve gap {worst_curve:.3e}]",
    )


def test_criterion_6_linear_mode_always_signals():
    gamma_betas = (1.5, 2.0, 5.0, 10.0, 100.0)
    # keep p*w moderate: the r_psi - r_phi gap scales with exp(-p**2 w**2)
    # and drops below double resolution once p*w exceeds ~6
    gamma_ps = (1.05, 1.1, 1.2, 1.5, 2.0)
    widths = (1.0, 1.5, 3.0)
    ok = True
    smallest_gap = math.inf
    for gamma_beta in gamma_betas:
        boost = BoostParameter.from_gamma(gamma_beta)
        for gamma_p in gamma_ps:
            momentum = FourMomentum.from_gamma(gamma_p)
            grid = UniformGrid.standing_wave(momentum.p, n_points=1025)
            vis_psi, vis_phi = (
                fringe_visibility(_linear_state(momentum, boost, basis, -1))
                for basis in ("z", "x")
            )
            for w in widths:
                sig = signaling_discriminator(
                    momentum.p, vis_psi, vis_phi, DetectorSpec(w), grid
                )
                ok &= sig.sup_gap > 0.0 and sig.r_psi > sig.r_phi
                smallest_gap = min(smallest_gap, sig.sup_gap)
    _report(
        6,
        "per-momentum map signals across the 5x5x3 parameter sweep "
        "(sup gap > 0 and mixed ratio above pure ratio)",
        ok,
        f" [smallest sup gap {smallest_gap:.3e}]",
    )


def test_criterion_7_outcome_independence():
    momentum = FourMomentum.from_gamma(1.2)
    boost = BoostParameter.from_gamma(10.0)
    grid = UniformGrid.standing_wave(momentum.p)
    worst = 0.0
    for basis in ("z", "x"):
        minus = _density(_linear_state(momentum, boost, basis, -1), grid)
        plus = _density(_linear_state(momentum, boost, basis, +1), grid)
        worst = max(worst, float(np.max(np.abs(minus.values - plus.values))))
    _report(
        7,
        "densities depend on the measured basis, never on the outcome (1e-12)",
        worst <= 1e-12,
        f" [max outcome gap {worst:.3e}]",
    )


def test_criterion_8_unitarity_and_norms():
    rng = np.random.default_rng(20250810)
    identity = np.eye(2)
    worst_unitarity = 0.0
    worst_norm = 0.0
    worst_integral = 0.0
    for draw in range(1000):
        beta = rng.uniform(0.0, 0.999)
        p = rng.uniform(1e-3, 5.0)
        boost = BoostParameter(beta)
        rotation = wigner_rotation(wigner_angle(FourMomentum(p), boost))
        worst_unitarity = max(
            worst_unitarity,
            float(np.max(np.abs(rotation.conj().T @ rotation - identity))),
        )

        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        spin = Spinor(vec[0], vec[1]).normalized()
        split = rng.uniform(0.1, 0.9)
        state = MomentumSpinState(
            (
                StateComponent(FourMomentum(p), spin, math.sqrt(split)),
                StateComponent(FourMomentum(-p), spin, -math.sqrt(1.0 - split)),
            )
        )
        for moved in (
            boost_linear(state, boost),
            boost_physical(state, boost, PreparationContext.MINUS_Y),
            boost_physical(state, boost, PreparationContext.PLUS_Y),
        ):
            worst_norm = max(worst_norm, abs(moved.norm() - 1.0))
        if draw % 50 == 0:
            grid = UniformGrid.standing_wave(p, n_points=513)
            dens = density(synthesize_discrete(boost_linear(state, boost), grid))
            worst_integral = max(worst_integral, abs(dens.integral() - 1.0))
    _report(
        8,
        "1000 random draws: rotations unitary (1e-12), boosts norm-preserving "
        "(1e-12), synthesized densities unit-mass (1e-6)",
        worst_unitarity <= 1e-12 and worst_norm <= 1e-12 and worst_integral <= 1e-6,
        f" [unitarity {worst_unitarity:.3e}, norm {worst_norm:.3e}, "
        f"integral {worst_integral:.3e}]",
    )


def test_criterion_9_second_figure_properties(tmp_path):
    code = cli.main(["figure2", "--out", str(tmp_path / "boosted")])
    assert code == 0
    lines = (tmp_path / "boosted" / "figure2.csv").read_text().splitlines()
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    y, dens_x, dens_z = data.T
    report = json.loads((tmp_path / "boosted" / "figure2_report.json").read_text())

    weights = np.full(y.size, y[1] - y[0])
    weights[[0, -1]] *= 0.5
    norm_x = float(np.sum(weights * dens_x))
    norm_z = float(np.sum(weights * dens_z))
    norms_ok = abs(norm_x - 1.0) <= 1e-6 and abs(norm_z - 1.0) <= 1e-6

    sup = report["outputs"]["sup_norm_difference"]
    sup_ok = sup > 0.0 and sup == pytest.approx(float(np.max(np.abs(dens_x - dens_z))))

    parseval_ok = all(
        abs(report["outputs"][key] - 1.0) <= 1e-6
        for key in ("parseval_ratio_spin_x", "parseval_ratio_spin_z")
    )

    code = cli.main(["figure2", "--beta", "0", "--out", str(tmp_path / "rest")])
    assert code == 0
    rest_lines = (tmp_path / "rest" / "figure2.csv").read_text().splitlines()
    rest = np.array([[float(x) for x in line.split(",")] for line in rest_lines[1:]])
    rest_ok = float(np.max(np.abs(rest[:, 1] - rest[:, 2]))) <= 1e-12

    _report(
        9,
        "second figure: unit-mass curves, positive reported gap at beta=0.995, "
        "coincidence at beta=0, exact Fourier-norm bookkeeping",
        norms_ok and sup_ok and parseval_ok and rest_ok,
        f" [sup gap {sup:.3e}, parseval x "
        f"{report['outputs']['parseval_ratio_spin_x']!r}]",
    )
