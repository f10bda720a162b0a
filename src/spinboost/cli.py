"""Command-line scenario runner.

Every scenario resolves its configuration deterministically (no clocks, no
randomness), writes CSV curves and a JSON report into the output directory,
and prints a short summary. Identical configuration produces byte-identical
files; the report embeds the resolved configuration so a run can be
reproduced from its own output via --config.

Exit codes: 0 success, 2 configuration error, 3 numerical contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .boost import BoostMode, PreparationContext, transform
from .detection import (
    DetectorSpec,
    detection_curve,
    ratio_report,
    signaling_discriminator,
)
from .kinematics import (
    BoostParameter,
    FourMomentum,
    wigner_angle,
    wigner_half_angle_sine,
)
from .spin import SPIN_PLUS_X, SPIN_PLUS_Z
from .states import (
    MeasurementSpec,
    MomentumSpinState,
    build_entangled_pair,
    center_interference_minimum,
    collapse,
    fringe_visibility,
)
from .wavefunction import (
    Density,
    GaussianPacketSpec,
    KFactor,
    PositionWavefunction,
    UniformGrid,
    density,
    synthesize_discrete,
    synthesize_gaussian,
)

_UNITS_NOTE = (
    "natural units: hbar = c = m = 1; lengths in reduced Compton wavelengths; "
    "angles in radians; speeds as fractions of c"
)

_NORMALIZATION_TOL = 1e-6
_NO_SIGNALING_TOL = 1e-12
#: Smallest detection ratio printed. Below it, the rounding of 1 - V held
#: in a float V can cost the ratio its 1e-6 relative accuracy, so the run
#: exits 3 instead.
_RATIO_FLOOR = 1e-9


class ConfigError(Exception):
    """Invalid or contradictory scenario configuration."""


class ContractError(Exception):
    """A numerical post-condition failed during a run."""


@dataclass
class ScenarioConfig:
    scenario: str
    gamma_beta: float | None = None
    beta: float | None = None
    gamma_p: float | None = None
    p: float | None = None
    v: float | None = None
    w: float = 1.0
    mode: str = "linear"
    prep: str = "minus_y"
    outcome: int = -1
    k_factor: str = "sqrt_m_over_p0"
    packet_width: float = 1.0
    grid_points: int | None = None
    half_periods: int = 8
    p_grid_points: int = 4096
    out: str = "out"

    def __post_init__(self) -> None:
        self.k_factor = {"sqrt": "sqrt_m_over_p0"}.get(self.k_factor, self.k_factor)
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.gamma_beta is not None and self.beta is not None:
            raise ConfigError("give at most one of gamma_beta and beta")
        if sum(x is not None for x in (self.gamma_p, self.p, self.v)) > 1:
            raise ConfigError("give at most one of gamma_p, p and v")
        if self.mode not in ("linear", "physical"):
            raise ConfigError(f"mode must be linear or physical, got {self.mode!r}")
        if self.prep not in ("plus_y", "minus_y", "confined"):
            raise ConfigError(
                f"prep must be plus_y, minus_y or confined, got {self.prep!r}"
            )
        if self.outcome not in (+1, -1):
            raise ConfigError(f"outcome must be +1 or -1, got {self.outcome!r}")
        if self.k_factor not in ("unity", "sqrt_m_over_p0"):
            raise ConfigError(
                f"k_factor must be unity or sqrt_m_over_p0, got {self.k_factor!r}"
            )
        for name, least in (("grid_points", 2), ("half_periods", 1), ("p_grid_points", 2)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value!r}")
        if not (math.isfinite(self.packet_width) and self.packet_width > 0.0):
            raise ConfigError(
                f"packet_width must be positive and finite, got {self.packet_width!r}"
            )
        if not (math.isfinite(self.w) and self.w >= 1.0):
            raise ConfigError(
                f"w must be finite and >= 1 Compton wavelength, got {self.w!r}"
            )


@contextmanager
def _config_errors():
    """Report the library's ValueError for a bad setting as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_boost(cfg: ScenarioConfig) -> BoostParameter:
    with _config_errors():
        if cfg.beta is not None:
            return BoostParameter(cfg.beta)
        if cfg.gamma_beta is not None:
            return BoostParameter.from_gamma(cfg.gamma_beta)
        if cfg.scenario == "figure2":
            return BoostParameter(0.995)
        return BoostParameter.from_gamma(10.0)


def _resolve_momentum(cfg: ScenarioConfig) -> FourMomentum:
    with _config_errors():
        if cfg.p is not None:
            if cfg.p <= 0.0:
                raise ConfigError(f"p must be positive, got {cfg.p!r}")
            return FourMomentum(cfg.p)
        if cfg.v is not None:
            if not 0.0 < cfg.v < 1.0:
                raise ConfigError(f"v must lie in (0, 1), got {cfg.v!r}")
            return FourMomentum.from_speed(cfg.v)
        gamma_p = 1.2 if cfg.gamma_p is None else cfg.gamma_p
        if gamma_p <= 1.0:
            raise ConfigError(f"gamma_p must exceed 1, got {gamma_p!r}")
        return FourMomentum.from_gamma(gamma_p)


def _resolve_mode(cfg: ScenarioConfig) -> BoostMode:
    if cfg.mode == "linear":
        return BoostMode("linear")
    return BoostMode("physical", PreparationContext(cfg.prep))


def _check_ratio_floor(r_psi: float, r_phi: float) -> None:
    if not (r_psi >= _RATIO_FLOOR and r_phi >= _RATIO_FLOOR):
        raise ContractError(
            f"detection ratios ({r_psi!r}, {r_phi!r}) fall below {_RATIO_FLOOR}, "
            "where they lose their relative accuracy"
        )


def _normalized_density(wavefunction: PositionWavefunction) -> Density:
    dens = density(wavefunction)
    if abs(dens.integral() - 1.0) > _NORMALIZATION_TOL:
        raise ContractError(
            f"density integral {dens.integral()!r} deviates from 1"
        )
    return dens


def _branch_states(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum
) -> list[MomentumSpinState]:
    """Particle 2 after the z-basis (psi) and the x-basis (phi) measurement,
    carried into the boosted frame."""
    mode = _resolve_mode(cfg)
    pair = build_entangled_pair(momentum.p)
    states = []
    for basis in ("z", "x"):
        _, state = collapse(pair, MeasurementSpec(basis, cfg.outcome))
        assert state is not None
        states.append(transform(state, boost, mode))
    return states


def _standing_grid(cfg: ScenarioConfig, momentum: FourMomentum) -> UniformGrid:
    n_points = 4097 if cfg.grid_points is None else cfg.grid_points
    return UniformGrid.standing_wave(momentum.p, cfg.half_periods, n_points)


def _kinematics_block(
    boost: BoostParameter, momentum: FourMomentum | None
) -> dict:
    block = {"beta": boost.beta, "gamma_beta": boost.gamma}
    if momentum is not None:
        block.update(
            {
                "p": momentum.p,
                "gamma_p": momentum.gamma_p,
                "v": momentum.speed,
                "wigner_half_angle_sine": wigner_half_angle_sine(
                    momentum.gamma_p, boost.gamma
                ),
                "wigner_angle": wigner_angle(momentum, boost),
            }
        )
    return block


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(f"{value:.17g}" for value in row))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


#: A scenario's report outputs, and its CSV columns by header or None.
_Outputs = tuple[dict, dict[str, np.ndarray] | None]


def _angle(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum
) -> _Outputs:
    return {
        "wigner_angle_positive_momentum": wigner_angle(momentum, boost),
        "wigner_angle_negative_momentum": wigner_angle(
            FourMomentum(-momentum.p), boost
        ),
    }, None


def _figure1(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum
) -> _Outputs:
    grid = _standing_grid(cfg, momentum)
    states = _branch_states(cfg, boost, momentum)
    vis_psi, vis_phi = (fringe_visibility(s) for s in states)
    # the origin is calibrated to the interference minimum of the observed
    # pattern, where the detector's reference point sits by construction;
    # this is an exact rigid translation in state space
    dens_psi, dens_phi = (
        _normalized_density(synthesize_discrete(center_interference_minimum(s), grid))
        for s in states
    )
    outputs = {
        "visibility_psi": vis_psi,
        "min_to_max_psi": (1.0 - vis_psi) / (1.0 + vis_psi),
        "sup_gap_over_peak": abs(vis_psi - vis_phi) / (1.0 + max(vis_psi, vis_phi)),
    }
    return outputs, {
        "y_over_compton": grid.points,
        "density_phi": dens_phi.values,
        "density_psi": dens_psi.values,
    }


def _figure2(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum | None
) -> _Outputs:
    width = cfg.packet_width
    n_points = 4096 if cfg.grid_points is None else cfg.grid_points
    grid = UniformGrid(-8.0 * width, 8.0 * width, n_points)
    p_grid = UniformGrid.for_packet(width, n_points=cfg.p_grid_points)
    spec_x = GaussianPacketSpec(width, SPIN_PLUS_X, KFactor(cfg.k_factor))
    spec_z = GaussianPacketSpec(width, SPIN_PLUS_Z, KFactor(cfg.k_factor))
    wf_x = synthesize_gaussian(spec_x, boost, grid, p_grid)
    wf_z = synthesize_gaussian(spec_z, boost, grid, p_grid)
    dens_x = _normalized_density(wf_x)
    dens_z = _normalized_density(wf_z)
    outputs = {
        "sup_norm_difference": float(np.max(np.abs(dens_x.values - dens_z.values))),
        "parseval_ratio_spin_x": wf_x.meta["parseval_ratio"],
        "parseval_ratio_spin_z": wf_z.meta["parseval_ratio"],
        "range_truncated": wf_x.meta["range_truncated"] or wf_z.meta["range_truncated"],
    }
    return outputs, {
        "y_over_compton": grid.points,
        "density_spin_x": dens_x.values,
        "density_spin_z": dens_z.values,
    }


def _ratio(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum
) -> _Outputs:
    vis = [fringe_visibility(s) for s in _branch_states(cfg, boost, momentum)]
    det = DetectorSpec(cfg.w)
    ratios = ratio_report(momentum.p, *vis, det, boost.gamma, momentum.speed)
    _check_ratio_floor(ratios.r_psi, ratios.r_phi)
    return asdict(ratios), None


def _signaling(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum
) -> _Outputs:
    grid = _standing_grid(cfg, momentum)
    vis = [fringe_visibility(s) for s in _branch_states(cfg, boost, momentum)]
    det = DetectorSpec(cfg.w)
    sig = signaling_discriminator(momentum.p, *vis, det, grid)
    _check_ratio_floor(sig.r_psi, sig.r_phi)
    return asdict(sig), {
        "y_over_compton": grid.points,
        "detect_prob_psi": detection_curve(momentum.p, vis[0], det, grid),
        "detect_prob_phi": detection_curve(momentum.p, vis[1], det, grid),
    }


def _paradox(
    cfg: ScenarioConfig, boost: BoostParameter, momentum: FourMomentum
) -> _Outputs:
    grid = _standing_grid(cfg, momentum)
    vis = [fringe_visibility(s) for s in _branch_states(cfg, boost, momentum)]
    det = DetectorSpec(cfg.w)
    ratios = ratio_report(momentum.p, *vis, det, boost.gamma, momentum.speed)
    _check_ratio_floor(ratios.r_psi, ratios.r_phi)
    sig = signaling_discriminator(
        momentum.p, *vis, det, grid, ratios=(ratios.r_psi, ratios.r_phi)
    )

    pair = build_entangled_pair(momentum.p)
    collapse_probs = {
        f"collapse_probability_{basis}{'+' if outcome > 0 else '-'}": collapse(
            pair, MeasurementSpec(basis, outcome)
        )[0]
        for basis in ("z", "x")
        for outcome in (+1, -1)
    }

    if cfg.mode == "physical" and sig.sup_gap > _NO_SIGNALING_TOL:
        raise ContractError(
            f"physical mode must not signal, but sup gap is {sig.sup_gap!r}"
        )

    outputs = {
        **collapse_probs,
        **asdict(ratios),
        "signaling_sup": sig.sup_gap,
        "signaling_ratio_gap": sig.ratio_gap,
    }
    return outputs, None


#: Each scenario's outputs; figure2 is passed no momentum.
_RUNNERS = {
    "angle": _angle,
    "figure1": _figure1,
    "figure2": _figure2,
    "ratio": _ratio,
    "signaling": _signaling,
    "paradox": _paradox,
}

SCENARIOS = tuple(_RUNNERS)


def run_scenario(cfg: ScenarioConfig) -> dict:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    boost = _resolve_boost(cfg)
    momentum = _resolve_momentum(cfg)
    if cfg.scenario == "figure2":  # validated, but the packet has no one momentum
        momentum = None
    outputs, columns = _RUNNERS[cfg.scenario](cfg, boost, momentum)
    report = {
        "tool": "spinboost",
        "tool_version": __version__,
        "units": _UNITS_NOTE,
        "scenario": cfg.scenario,
        "config": asdict(cfg),
        "kinematics": _kinematics_block(boost, momentum),
        "outputs": outputs,
        "files": [],
    }
    if columns is not None:
        csv_path = out_dir / f"{cfg.scenario}.csv"
        _write_csv(csv_path, columns)
        report["files"].append(csv_path.name)
    report_path = out_dir / f"{cfg.scenario}_report.json"
    with open(report_path, "w", newline="\n") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    report["files"].append(report_path.name)
    return report


#: argparse converter per ScenarioConfig annotation, read from the annotation
#: string ("float | None" -> float) so that no type hint is evaluated.
_CONVERTERS = {"float": float, "int": int, "str": str}

#: JSON value types a config file may give per annotation name; an integer
#: is a valid float, a boolean is not a number.
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "None": (type(None),)}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="spinboost",
        description="Boosted-frame detection statistics for a spin-1/2 "
        "particle in a superposition of counter-propagating momenta.",
    )
    parser.add_argument("scenario", nargs="?", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON config or report file to replay")
    for field in fields(ScenarioConfig):
        if field.name != "scenario":
            parser.add_argument(
                "--" + field.name.replace("_", "-"),
                type=_CONVERTERS[field.type.split(" | ")[0]],
            )
    return parser.parse_args(argv)


def _check_types(base: dict) -> None:
    """Refuse config-file values whose type is not their field's."""
    for field in fields(ScenarioConfig):
        allowed = [t for name in field.type.split(" | ") for t in _JSON_TYPES[name]]
        if field.name in base and type(base[field.name]) not in allowed:
            value = base[field.name]
            raise ConfigError(f"{field.name} must be {field.type}, got {value!r}")


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None:
        try:
            with open(args.config) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        base = payload.get("config", payload) if isinstance(payload, dict) else payload
        if not isinstance(base, dict):
            raise ConfigError("a config file must hold a JSON object")
        _check_types(base)
        # reports written before the ignored basis option was removed carry it
        base.pop("basis", None)
        if args.scenario is not None and args.scenario != base.get("scenario"):
            raise ConfigError(
                f"scenario {args.scenario!r} conflicts with the config file's "
                f"{base.get('scenario')!r}"
            )
        if args.out is not None:
            base = {**base, "out": args.out}
        try:
            return ScenarioConfig(**base)
        except TypeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from None

    if args.scenario is None:
        raise ConfigError("a scenario name or --config is required")
    given = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    return ScenarioConfig(**given)


def _summarize(report: dict) -> None:
    print(f"scenario: {report['scenario']}  (spinboost {report['tool_version']})")
    print(f"units: {report['units']}")
    for block in ("kinematics", "outputs"):
        for key, value in sorted(report.get(block, {}).items()):
            print(f"{key} = {value}")
    for name in report["files"]:
        print(f"wrote {Path(report['config']['out']) / name}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        cfg = _build_config(args)
        report = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    _summarize(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
