"""Independent reference values, computed from printed formulas and brute
force only — nothing here calls into the package, so these stay valid
oracles for whatever the library produces.
"""

from __future__ import annotations

import math
from collections import defaultdict

import mpmath as mp
import numpy as np


def half_angle_sine_mp(gamma_p, gamma_beta, dps: int = 50) -> float:
    """Arbitrary-precision evaluation of the half-angle sine formula."""
    with mp.workdps(dps):
        gp, gb = mp.mpf(gamma_p), mp.mpf(gamma_beta)
        return float(mp.sqrt((gp - 1) * (gb - 1) / (2 * (1 + gp * gb))))


def full_angle_mp(gamma_p, gamma_beta, dps: int = 50) -> float:
    with mp.workdps(dps):
        gp, gb = mp.mpf(gamma_p), mp.mpf(gamma_beta)
        return float(2 * mp.asin(mp.sqrt((gp - 1) * (gb - 1) / (2 * (1 + gp * gb)))))


def gamma_mp(speed, dps: int = 50) -> float:
    with mp.workdps(dps):
        return float(1 / mp.sqrt(1 - mp.mpf(speed) ** 2))


def standing_wave_ratio(a: float, b: float, p: float, w: float) -> float:
    """Min-to-max Gaussian-kernel detection ratio of a density proportional
    to a*sin(p y)**2 + b*cos(p y)**2 on the full line.

    Derived from the closed form
        int exp(-(y - c)**2 / w**2) sin(p y)**2 dy
            = (sqrt(pi) w / 2) (1 - E cos(2 p c)),  E = exp(-p**2 w**2),
    evaluated at c = 0 and at the quarter-period maximum:
        R = (a (1 - E) + b (1 + E)) / (a (1 + E) + b (1 - E)).
    """
    E = math.exp(-((p * w) ** 2))
    return (a * (1 - E) + b * (1 + E)) / (a * (1 + E) + b * (1 - E))


def singlet_pair_terms(p: float):
    """The four product terms of the entangled pair, as raw labels/vectors:
    (amplitude, p1, spinor1, p2, spinor2)."""
    up = np.array([1.0, 0.0], dtype=complex)
    dn = np.array([0.0, 1.0], dtype=complex)
    return [
        (+0.5, +p, up, +p, dn),
        (-0.5, +p, up, -p, dn),
        (-0.5, +p, dn, +p, up),
        (+0.5, +p, dn, -p, up),
    ]


def born_probability(terms, eigvec) -> float:
    """Brute-force Born probability of projecting particle 1 on ``eigvec``:
    momenta are orthonormal labels, spinors explicit 2-vectors."""
    remainder = defaultdict(lambda: np.zeros(2, dtype=complex))
    for amplitude, _, chi1, p2, chi2 in terms:
        remainder[p2] = remainder[p2] + amplitude * np.vdot(eigvec, chi1) * chi2
    return float(sum(np.vdot(v, v).real for v in remainder.values()))


def conditional_particle2(terms, eigvec):
    """Brute-force normalized particle-2 coefficient vectors after the
    projection, keyed by momentum label."""
    remainder = defaultdict(lambda: np.zeros(2, dtype=complex))
    for amplitude, _, chi1, p2, chi2 in terms:
        remainder[p2] = remainder[p2] + amplitude * np.vdot(eigvec, chi1) * chi2
    total = math.sqrt(sum(np.vdot(v, v).real for v in remainder.values()))
    return {p2: v / total for p2, v in remainder.items()}


def trapezoid_detection(y, density, w: float, centers) -> np.ndarray:
    """Brute-force detection probability: the trapezoid sum over the uniform
    grid ``y`` of the normalized kernel exp(-(y - c)**2 / w**2) / (w sqrt(pi))
    times the density samples, at each center c."""
    y = np.asarray(y, dtype=float)
    weights = np.full(y.size, y[1] - y[0])
    weights[[0, -1]] *= 0.5
    weighted = weights * np.asarray(density, dtype=float)
    out = np.empty(len(centers))
    for i, c in enumerate(centers):
        kernel = np.exp(-(((y - c) / w) ** 2)) / (w * math.sqrt(math.pi))
        out[i] = float(np.dot(kernel, weighted))
    return out


def fourier_sum(y, p, g, block: int = 256) -> np.ndarray:
    """Brute-force sum over k of g[..., k] exp(i y_j p_k) at every y_j, each
    row of ``g`` separately, over blocks of ``block`` positions."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=complex)
    out = np.empty(g.shape[:-1] + (y.size,), dtype=complex)
    for start in range(0, y.size, block):
        rows = slice(start, start + block)
        out[..., rows] = g @ np.exp(1j * np.outer(p, y[rows]))
    return out
