"""Seeded operations of the three benchmark workloads.

An operation is one job a user would start from the shell: a list of CLI
argument vectors that run one after the other into one output directory,
plus the parameters the output checker needs to compute expected values.
Each operation builder takes the next point of the run's ``EvenInputs``,
so every operation of a run has its own inputs, each parameter's range is
covered evenly, and the same seed always yields the same sequence.

Why each workload exists:

* ``packet``: ``figure2`` at the default 4096 x 4096 grids. Nearly all of
  the time is Gaussian-packet synthesis; detection, states and boost are
  never called.
* ``detect``: ``signaling`` (linear) then ``paradox --mode physical`` at one
  point near the reference. Nearly all of the time is detection curves;
  Gaussian synthesis is never called.
* ``sweep``: ``ratio`` at a point drawn from the part of the CLI-valid
  domain where the default grid resolves the detector kernel and its window
  holds it (``RESOLVED_PW``). No dense loop runs, so argument parsing,
  report writing, discrete synthesis, collapse and point detection
  evaluations dominate.

Outside ``RESOLVED_PW`` the current code returns wrong ratios (an
under-sampled or truncated kernel). Those points are not timed; the traced
run checks a fixed number of ``ratio`` operations drawn from the whole
domain (``audit_op``) and reports which share of them fails.

All workloads share one reference computation: fixed work of the kinds
they spend their time on, written without ``spinboost``, and its nominal
wall time. On a shared machine the speed of such work drifts by tens of
percent over seconds; the reference, timed between operations and between
set-up samples, measures the drift so that times can be scaled back to the
nominal speed (see run.py).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time

import numpy as np

PREPS = ("plus_y", "minus_y", "confined")


class Point:
    """One operation's coordinates in [0, 1), used one per draw."""

    def __init__(self, coords: list[float]) -> None:
        self._coords = iter(coords)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * next(self._coords)

    def choice(self, options: tuple[str, ...]) -> str:
        return options[int(len(options) * next(self._coords))]


class EvenInputs:
    """Seeded operation inputs that cover every parameter's range evenly.

    Operation i takes the i-th point of an additive-recurrence (Kronecker)
    sequence in the unit cube, shifted by offsets drawn from the seed. A run
    of a few dozen operations then samples each range about evenly, so its
    median does not depend on where a few random draws happened to land.
    """

    DIMS = 5

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._offsets = [rng.random() for _ in range(self.DIMS)]
        # the root of x ** (DIMS + 1) = x + 1 gives the sequence's steps
        root = 1.0
        for _ in range(64):
            root = (1.0 + root) ** (1.0 / (self.DIMS + 1))
        self._steps = [root ** -(k + 1) for k in range(self.DIMS)]
        self._count = 0

    def next(self) -> Point:
        self._count += 1
        return Point([
            (offset + self._count * step) % 1.0
            for offset, step in zip(self._offsets, self._steps)
        ])


def _log_uniform(point: Point, lo: float, hi: float) -> float:
    return math.exp(point.uniform(math.log(lo), math.log(hi)))


def packet_op(point: Point) -> tuple[dict, list[list[str]]]:
    params = {
        "scenario": "figure2",
        "beta": point.uniform(0.9, 0.999),
        "packet_width": point.uniform(1.0, 4.0),
        "k_factor": point.choice(("unity", "sqrt")),
    }
    argv = [
        "figure2",
        "--beta", repr(params["beta"]),
        "--packet-width", repr(params["packet_width"]),
        "--k-factor", params["k_factor"],
    ]
    return params, [argv]


def detect_op(point: Point) -> tuple[dict, list[list[str]]]:
    params = {
        "scenario": "detect",
        "gamma_beta": _log_uniform(point, 2.0, 100.0),
        "gamma_p": point.uniform(1.05, 1.8),
        "w": point.uniform(1.0, 2.0),
        "prep": point.choice(PREPS),
    }
    where = [
        "--gamma-beta", repr(params["gamma_beta"]),
        "--gamma-p", repr(params["gamma_p"]),
        "--w", repr(params["w"]),
    ]
    return params, [
        ["signaling", *where, "--mode", "linear"],
        ["paradox", *where, "--mode", "physical", "--prep", params["prep"]],
    ]


#: Range of p w (momentum times kernel width) in which the default
#: standing-wave grid resolves the kernel and its window holds it: at least
#: 3 grid steps per kernel width (w / dy = 4096 p w / (8 pi) >= 3) and at
#: least 8 kernel widths per half window (4 pi / (p w) >= 8). Over 6000
#: whole-domain points the current code agreed with the closed form to
#: 1e-12 or better in this range; it first misses 1e-6 below p w = 0.009
#: and above p w = 3.
RESOLVED_PW = (3.0 * 8.0 * math.pi / 4096.0, 4.0 * math.pi / 8.0)


def _ratio_op(point: Point, v_max: float, w_range) -> tuple[dict, list[list[str]]]:
    """``ratio`` with v log-uniform in [1e-3, v_max] and w log-uniform in
    ``w_range(p)`` for the momentum p of that v."""
    gamma_beta = 1.0 + _log_uniform(point, 1e-2, 1e3)
    v = _log_uniform(point, 1e-3, v_max)
    params = {
        "scenario": "ratio",
        "gamma_beta": gamma_beta,
        "v": v,
        "w": _log_uniform(point, *w_range(v / math.sqrt((1.0 - v) * (1.0 + v)))),
        "mode": point.choice(("linear", "physical")),
    }
    argv = [
        "ratio",
        "--gamma-beta", repr(params["gamma_beta"]),
        "--v", repr(params["v"]),
        "--w", repr(params["w"]),
        "--mode", params["mode"],
    ]
    if params["mode"] == "physical":
        params["prep"] = point.choice(PREPS)
        argv += ["--prep", params["prep"]]
    return params, [argv]


def sweep_op(point: Point) -> tuple[dict, list[list[str]]]:
    lo, hi = RESOLVED_PW
    # p <= hi, so that some w >= 1 keeps p w <= hi
    return _ratio_op(
        point,
        hi / math.hypot(1.0, hi),
        lambda p: (max(1.0, lo / p), min(30.0, hi / p)),
    )


def audit_op(point: Point) -> tuple[dict, list[list[str]]]:
    """``ratio`` anywhere in the CLI-valid domain: v in [1e-3, 0.99],
    w in [1, 30]."""
    return _ratio_op(point, 0.99, lambda p: (1.0, 30.0))


BUILDERS = {"packet": packet_op, "detect": detect_op, "sweep": sweep_op}


def reference() -> None:
    """Fixed work of each kind the workloads spend their time on, in arrays
    of at most 64 KiB so that it never sets the worker's peak RSS: complex
    exponentials of 512 x 8 blocks with a matrix-vector product (Fourier
    sums), 8 x 1024 Gaussian-kernel blocks (detection curves), and argument
    parsing, small-array numpy and JSON formatting (the CLI).
    """
    y = np.linspace(-8.0, 8.0, 1024)
    p = np.linspace(-8.0, 8.0, 512)
    weights = np.ones(8, dtype=complex)
    block = np.empty((512, 8), dtype=complex)
    for start in range(0, 512, 8):
        np.multiply(1j, np.multiply.outer(y[:512], p[start:start + 8]), out=block)
        np.exp(block, out=block)
        block @ weights
    kernel = np.empty((8, 1024))
    for start in range(0, 1024, 8):
        np.subtract.outer(y[start:start + 8], y, out=kernel)
        kernel /= 1.5
        np.square(kernel, out=kernel)
        np.negative(kernel, out=kernel)
        np.exp(kernel, out=kernel)
        kernel @ y
    parser = argparse.ArgumentParser()
    for i in range(16):
        parser.add_argument(f"--opt{i}", type=float)
    argv = [arg for i in range(8) for arg in (f"--opt{i}", repr(1.0 + 0.1 * i))]
    for _ in range(40):
        namespace = parser.parse_args(argv)
        density = np.abs(np.exp(0.7j * y) - np.exp(-0.7j * y)) ** 2
        total = float(np.sum(density * np.exp(-((y / 1.3) ** 2))))
        json.dumps({"config": vars(namespace), "total": total}, indent=2, sort_keys=True)


def reference_seconds() -> float:
    """Wall time of one run of ``reference``."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


#: Wall time of ``reference`` in seconds, about its time on a quiet 2-core
#: x86-64 machine. Operation and set-up times are reported at this reference
#: speed; only ratios to it matter.
REFERENCE_NOMINAL_S = 0.025

