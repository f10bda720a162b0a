"""Self-test of the output checker: known-good outputs must pass and
known-bad outputs must fail. It runs the CLI as a user would, in fresh
processes, and judges the results with checker.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from checker import (
    check_figure2_files,
    check_paradox,
    check_ratio,
    ratio_mismatches,
)

#: What ``ratio --gamma-beta 1000 --v 0.001`` printed before detection was
#: made exact: the grid spacing (6.1) under-samples the kernel (w = 1), and
#: the closed form gives r_phi = 5e-7, not 3e-21. Kept as data so that the
#: test stays a test of the checker once the program is fixed.
UNDERSAMPLED_RATIO = {"r_psi": 2.4950062430214437e-07, "r_phi": 3.355889403191007e-21}

#: A figure2 small enough to check quickly, and the size of the change made
#: to one of its samples, relative to the column's peak.
FIGURE2_PARAMS = {"beta": 0.995, "packet_width": 1.0, "k_factor": "sqrt"}
FIGURE2_POINTS = 512
PERTURBATION = 1e-6


def _cli(env: dict, out: Path, argv: list[str]) -> int:
    return subprocess.run(
        [sys.executable, "-m", "spinboost", *argv, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run_selftest(env: dict, out: Path) -> dict[str, bool]:
    """Each check's name mapped to whether the checker judged as expected."""
    results = {}

    ref = out / "ratio"
    results["reference ratio passes"] = (
        _cli(env, ref, ["ratio"]) == 0 and not check_ratio({}, ref)
    )

    paradox = out / "paradox"
    argv = ["paradox", "--mode", "physical", "--prep", "minus_y"]
    results["physical paradox passes"] = (
        _cli(env, paradox, argv) == 0 and not check_paradox({}, paradox)
    )

    results["under-sampled ratio fails"] = bool(
        ratio_mismatches({"gamma_beta": 1000.0, "v": 0.001}, UNDERSAMPLED_RATIO, "ratio")
    )

    fig = out / "figure2"
    n = str(FIGURE2_POINTS)
    argv = [
        "figure2", "--beta", repr(FIGURE2_PARAMS["beta"]),
        "--packet-width", repr(FIGURE2_PARAMS["packet_width"]),
        "--k-factor", FIGURE2_PARAMS["k_factor"],
        "--grid-points", n, "--p-grid-points", n,
    ]
    ran = _cli(env, fig, argv) == 0

    def judge(csv: Path) -> list[str]:
        with open(fig / "figure2_report.json") as handle:
            report = json.load(handle)
        return check_figure2_files(
            FIGURE2_PARAMS, report, csv, FIGURE2_POINTS, FIGURE2_POINTS
        )

    if not ran:
        results["figure2 passes"] = results["figure2 with one sample perturbed fails"] = False
        return results
    results["figure2 passes"] = not judge(fig / "figure2.csv")
    with open(fig / "figure2.csv") as handle:
        header = handle.readline().strip()
    table = np.loadtxt(fig / "figure2.csv", delimiter=",", skiprows=1)
    table[FIGURE2_POINTS // 3, 2] += PERTURBATION * table[:, 2].max()
    bad = fig / "figure2_perturbed.csv"
    np.savetxt(bad, table, fmt="%.17g", delimiter=",", header=header, comments="")
    results["figure2 with one sample perturbed fails"] = bool(judge(bad))
    return results
