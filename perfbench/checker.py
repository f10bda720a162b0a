"""Output checks that decide whether an operation's answer is right.

Expected values come from closed forms and brute-force sums written out
here; nothing is imported from ``spinboost``. The tolerances are fixed
below, not fitted to the errors of any version of the program.

Closed form used for every ratio and curve: a density proportional to
a sin^2(p y) + b cos^2(p y), seen through the normalized kernel
exp(-y^2/w^2), gives the detection probability
    (a (1 - E cos 2pc) + b (1 + E cos 2pc)) / (L (a + b)),   E = exp(-p^2 w^2),
at center c for a density normalized over a window of length L, and the
min-to-max ratio
    R = (a (1 - E) + b (1 + E)) / (a (1 + E) + b (1 - E)).
With c = cos(phi) and phi the full rotation angle, a = 1 + c and b = 1 - c
for the z branch under the linear map; c = 1 for the x branch and for the
physical map. Both are written with a = 2 cos^2(phi/2), b = 2 sin^2(phi/2)
so that small angles lose no digits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Relative tolerance on r_psi and r_phi; the CLI's own normalization
#: tolerance.
RATIO_RTOL = 1e-6
#: Tolerance on detection-curve samples, relative to the curve's peak.
CURVE_RTOL = 1e-6
#: Curve samples are compared only this many kernel widths or more away
#: from the window edges, where the finite window drops under 1e-7 of the
#: kernel mass (erfc(3.8) / 2 = 4e-8).
CURVE_EDGE_WIDTHS = 3.8
#: Largest sup gap the physical map may show.
SUP_GAP_MAX = 1e-12
#: Tolerance on the trapezoid integral of a figure2 density and on the
#: reported Parseval ratios.
NORM_TOL = 1e-6
#: Tolerance on figure2 density samples, relative to the column's peak.
DENSITY_ATOL_OVER_PEAK = 1e-9
#: Grid sizes the CLI uses when no size flag is given.
STANDING_HALF_PERIODS = 8
STANDING_POINTS = 4097
PACKET_POINTS = 4096
PACKET_EXTENT = 8.0


def _gamma_minus_one_from_speed(v: float) -> float:
    root = math.sqrt((1.0 - v) * (1.0 + v))
    return v * v / (root * (1.0 + root))


def _momentum(params: dict) -> tuple[float, float]:
    """(p, gamma_p - 1) of the superposed momenta."""
    if "v" in params:
        v = params["v"]
        gm1 = _gamma_minus_one_from_speed(v)
        return v / math.sqrt((1.0 - v) * (1.0 + v)), gm1
    gamma_p = params.get("gamma_p", 1.2)
    return math.sqrt((gamma_p - 1.0) * (gamma_p + 1.0)), gamma_p - 1.0


def half_angle_sine_sq(gp_m1: float, gb_m1: float) -> float:
    """sin^2(phi/2) of the rotation for Lorentz factors 1 + gp_m1, 1 + gb_m1."""
    return gp_m1 * gb_m1 / (2.0 * (1.0 + (1.0 + gp_m1) * (1.0 + gb_m1)))


def _branch_weights(params: dict, branch: str) -> tuple[float, float]:
    """(a, b) / 2 of the density a sin^2 + b cos^2 of one basis branch."""
    if branch == "x" or params.get("mode", "linear") == "physical":
        return 1.0, 0.0
    _, gp_m1 = _momentum(params)
    s2 = half_angle_sine_sq(gp_m1, params.get("gamma_beta", 10.0) - 1.0)
    return 1.0 - s2, s2


def expected_ratio(params: dict, branch: str) -> float:
    p, _ = _momentum(params)
    a, b = _branch_weights(params, branch)
    x = (p * params.get("w", 1.0)) ** 2
    one_minus_e = -math.expm1(-x)
    e = 1.0 - one_minus_e
    return (a * one_minus_e + b * (1.0 + e)) / (a * (1.0 + e) + b * one_minus_e)


def expected_curve(params: dict, branch: str, centers: np.ndarray) -> np.ndarray:
    p, _ = _momentum(params)
    a, b = _branch_weights(params, branch)
    e = math.exp(-((p * params.get("w", 1.0)) ** 2))
    length = STANDING_HALF_PERIODS * math.pi / p
    osc = e * np.cos(2.0 * p * centers)
    return (a * (1.0 - osc) + b * (1.0 + osc)) / (length * (a + b))


def _trapezoid_weights(points: np.ndarray) -> np.ndarray:
    weights = np.full(points.size, points[1] - points[0])
    weights[[0, -1]] *= 0.5
    return weights


def _close(got, want: float, rtol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rtol * abs(want)


def ratio_mismatches(params: dict, outputs: dict, label: str) -> list[str]:
    problems = []
    for key, branch in (("r_psi", "z"), ("r_phi", "x")):
        want = expected_ratio(params, branch)
        got = outputs.get(key)
        if not _close(got, want, RATIO_RTOL):
            problems.append(f"{label} {key} = {got!r}, expected {want!r}")
    return problems


def _report(op_dir: Path, scenario: str) -> dict:
    with open(op_dir / f"{scenario}_report.json") as handle:
        return json.load(handle)


def _csv_columns(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_ratio(params: dict, op_dir: Path) -> list[str]:
    return ratio_mismatches(params, _report(op_dir, "ratio")["outputs"], "ratio")


def check_signaling_curves(params: dict, csv_path: Path) -> list[str]:
    header, table = _csv_columns(csv_path)
    if header != ["y_over_compton", "detect_prob_psi", "detect_prob_phi"]:
        return [f"signaling.csv header {header}"]
    p, _ = _momentum(params)
    half_window = 0.5 * STANDING_HALF_PERIODS * math.pi / p
    if table.shape != (STANDING_POINTS, 3):
        return [f"signaling.csv has shape {table.shape}"]
    grid = np.linspace(-half_window, half_window, STANDING_POINTS)
    if np.max(np.abs(table[:, 0] - grid)) > 1e-12 * half_window:
        return ["signaling.csv centers are not the standing-wave grid"]
    margin = CURVE_EDGE_WIDTHS * params.get("w", 1.0)
    interior = np.abs(grid) <= half_window - margin
    # the origin is always checked: ratios depend on it
    interior[STANDING_POINTS // 2] = True
    problems = []
    for column, branch in ((1, "z"), (2, "x")):
        want = expected_curve(params, branch, grid)
        err = np.abs(table[:, column] - want)[interior]
        worst = float(err.max())
        if not worst <= CURVE_RTOL * float(want.max()):
            problems.append(
                f"signaling.csv {header[column]} off by {worst:.3e} "
                f"(peak {float(want.max()):.3e})"
            )
    return problems


def check_paradox(params: dict, op_dir: Path) -> list[str]:
    """Checks of a ``paradox --mode physical`` run."""
    paradox = _report(op_dir, "paradox")["outputs"]
    problems = ratio_mismatches({**params, "mode": "physical"}, paradox, "paradox")
    sup = paradox.get("signaling_sup")
    if not (isinstance(sup, (int, float)) and 0.0 <= sup <= SUP_GAP_MAX):
        problems.append(f"paradox physical sup gap {sup!r} exceeds {SUP_GAP_MAX}")
    # every outcome of a spin measurement on a singlet has probability 1/2
    for basis in ("z", "x"):
        for sign in "+-":
            key = f"collapse_probability_{basis}{sign}"
            if not _close(paradox.get(key), 0.5, RATIO_RTOL):
                problems.append(f"paradox {key} = {paradox.get(key)!r}")
    return problems


def check_detect(params: dict, op_dir: Path) -> list[str]:
    signaling = _report(op_dir, "signaling")["outputs"]
    problems = ratio_mismatches(params, signaling, "signaling")
    problems += check_signaling_curves(params, op_dir / "signaling.csv")
    return problems + check_paradox(params, op_dir)


def packet_densities(
    beta: float, width: float, k_factor: str, n_y: int, n_p: int
) -> dict[str, np.ndarray]:
    """Brute-force sum of the quadrature formula for both spin preparations.

    psi(y) = sum_k t_k K(p_k) exp(-p_k^2 width^2 / 2) R(p_k) chi exp(i y p_k),
    with t_k the trapezoid weights of the momentum grid, K = (1 + p^2)^(-1/4)
    or 1, and R(p) the rotation by the signed angle of momentum p; the
    density |psi_up|^2 + |psi_down|^2 is then normalized by its trapezoid
    integral over the position grid.
    """
    y = np.linspace(-PACKET_EXTENT * width, PACKET_EXTENT * width, n_y)
    p = np.linspace(-PACKET_EXTENT / width, PACKET_EXTENT / width, n_p)
    k = (1.0 + p**2) ** -0.25 if k_factor == "sqrt" else np.ones(n_p)
    envelope = _trapezoid_weights(p) * k * np.exp(-0.5 * (p * width) ** 2)
    gb_m1 = _gamma_minus_one_from_speed(beta)
    gp_m1 = p**2 / (np.sqrt(1.0 + p**2) + 1.0)
    s2 = gp_m1 * gb_m1 / (2.0 * (1.0 + (1.0 + gp_m1) * (1.0 + gb_m1)))
    sin_half = np.sign(p) * np.sqrt(s2)
    cos_half = np.sqrt(1.0 - s2)
    # spin z: chi = (1, 0); spin x: chi = (1, 1) / sqrt(2)
    coefficients = np.stack(
        [
            envelope * cos_half,
            1j * envelope * sin_half,
            envelope * (cos_half + 1j * sin_half) / math.sqrt(2.0),
        ],
        axis=1,
    )
    # exp(i y p) = exp(i (y - y_s) p) exp(i y_s p) for the first row y_s of
    # each block; every block shares the first factor
    block = 256
    offsets = np.exp(1j * np.outer(y[:block] - y[0], p))
    sums = np.empty((n_y, 3), dtype=complex)
    for start in range(0, n_y, block):
        rows = slice(start, min(start + block, n_y))
        shifted = coefficients * np.exp(1j * y[start] * p)[:, np.newaxis]
        sums[rows] = offsets[: rows.stop - start] @ shifted
    t_y = _trapezoid_weights(y)
    out = {"y": y}
    # for spin x both components equal the third sum
    for name, raw in (
        ("density_spin_z", np.abs(sums[:, 0]) ** 2 + np.abs(sums[:, 1]) ** 2),
        ("density_spin_x", 2.0 * np.abs(sums[:, 2]) ** 2),
    ):
        out[name] = raw / float(np.sum(t_y * raw))
    return out


def check_figure2_files(
    params: dict, report: dict, csv_path: Path, n_y: int, n_p: int
) -> list[str]:
    header, table = _csv_columns(csv_path)
    if header != ["y_over_compton", "density_spin_x", "density_spin_z"]:
        return [f"figure2.csv header {header}"]
    if table.shape != (n_y, 3):
        return [f"figure2.csv has shape {table.shape}"]
    want = packet_densities(
        params["beta"], params["packet_width"], params["k_factor"], n_y, n_p
    )
    problems = []
    if np.max(np.abs(table[:, 0] - want["y"])) > 1e-12 * abs(want["y"][0]):
        problems.append("figure2.csv positions are not the packet grid")
    t_y = _trapezoid_weights(want["y"])
    for column, name in ((1, "density_spin_x"), (2, "density_spin_z")):
        values = table[:, column]
        integral = float(np.sum(t_y * values))
        if not abs(integral - 1.0) <= NORM_TOL:
            problems.append(f"{name} integrates to {integral!r}")
        worst = float(np.max(np.abs(values - want[name])))
        peak = float(want[name].max())
        if not worst <= DENSITY_ATOL_OVER_PEAK * peak:
            problems.append(f"{name} off by {worst:.3e} (peak {peak:.3e})")
    outputs = report.get("outputs", {})
    for key in ("parseval_ratio_spin_x", "parseval_ratio_spin_z"):
        value = outputs.get(key)
        if not (isinstance(value, (int, float)) and abs(value - 1.0) <= NORM_TOL):
            problems.append(f"{key} = {value!r}")
    return problems


def check_packet(params: dict, op_dir: Path) -> list[str]:
    return check_figure2_files(
        params,
        _report(op_dir, "figure2"),
        op_dir / "figure2.csv",
        PACKET_POINTS,
        PACKET_POINTS,
    )


CHECKS = {"packet": check_packet, "detect": check_detect, "sweep": check_ratio}


def check_op(workload: str, params: dict, op_dir: Path) -> list[str]:
    """Problems found in one operation's outputs; empty when all are right.

    A missing or unreadable output is a problem, not an error of the
    checker.
    """
    try:
        return CHECKS[workload](params, op_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
