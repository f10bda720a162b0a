import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinboost import cli

import oracles


def _run(tmp_path, *args):
    out = tmp_path / "out"
    code = cli.main([*args, "--out", str(out)])
    return code, out


def _expected_ratios(gamma_beta=10.0, gamma_p=1.2, w=1.0, mode="linear"):
    """(r_psi, r_phi) from the standing-wave oracle: the z branch's density
    is cos^2(phi/2) sin^2 + sin^2(phi/2) cos^2 under the linear map, and the
    x branch's (and every physical branch's) is a pure sin^2."""
    p = math.sqrt(gamma_p**2 - 1.0)
    phi = oracles.full_angle_mp(gamma_p, gamma_beta)
    a, b = (math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2)
    if mode == "physical":
        a, b = 1.0, 0.0
    return (
        oracles.standing_wave_ratio(a, b, p, w),
        oracles.standing_wave_ratio(1.0, 0.0, p, w),
    )


def _assert_oracle_ratios(outputs, **where):
    r_psi, r_phi = _expected_ratios(**where)
    assert outputs["r_psi"] == pytest.approx(r_psi, rel=1e-6)
    assert outputs["r_phi"] == pytest.approx(r_phi, rel=1e-6)
    assert outputs["r_psi"] <= 1.0 and outputs["r_phi"] <= 1.0


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestConfigHandling:
    def test_unknown_scenario_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["warp"])
        assert err.value.code == 2

    def test_missing_scenario_is_a_config_error(self):
        assert cli.main([]) == 2

    def test_conflicting_boost_aliases(self, tmp_path):
        code, _ = _run(tmp_path, "angle", "--beta", "0.9", "--gamma-beta", "10")
        assert code == 2

    def test_conflicting_momentum_aliases(self, tmp_path):
        code, _ = _run(tmp_path, "angle", "--v", "0.1", "--gamma-p", "1.2")
        assert code == 2

    def test_subluminal_detector_is_a_config_error(self, tmp_path):
        code, _ = _run(tmp_path, "ratio", "--w", "0.5")
        assert code == 2

    def test_bad_beta_is_a_config_error(self, tmp_path):
        code, _ = _run(tmp_path, "angle", "--beta", "1.5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["ratio", "--grid-points", "1"],
            ["ratio", "--half-periods", "0"],
            ["figure2", "--packet-width", "0"],
            ["figure2", "--p-grid-points", "1"],
        ],
    )
    def test_invalid_grid_setting_is_a_config_error(self, tmp_path, argv):
        code, _ = _run(tmp_path, *argv)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure2", "--v", "5"],
            ["figure2", "--gamma-p", "0.5"],
            ["angle", "--grid-points", "1"],
            ["angle", "--packet-width", "nan"],
            ["angle", "--w", "0.5"],
            ["figure1", "--w", "0.5"],
            ["figure2", "--w", "0.5"],
            ["figure2", "--w", "inf"],
        ],
    )
    def test_option_out_of_range_is_a_config_error_where_unused(self, tmp_path, argv):
        code, _ = _run(tmp_path, *argv)
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario": "ratio", "grid_points": "9"},
            {"scenario": "figure2", "packet_width": "2"},
            {"scenario": "ratio", "outcome": True},
            ["ratio"],
        ],
    )
    def test_config_file_of_the_wrong_type_is_a_config_error(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_unreadable_config_file_is_a_config_error(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        for path in (broken, tmp_path / "missing.json"):
            assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_replay_of_a_default_report_rewrites_identical_files(self, tmp_path, scenario):
        small = ["--grid-points", "512", "--p-grid-points", "512"]
        code, out = _run(tmp_path, scenario, *(small if scenario == "figure2" else []))
        assert code == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        report = out / f"{scenario}_report.json"
        assert cli.main(["--config", str(report)]) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_basis_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            _run(tmp_path, "angle", "--basis", "z")
        assert err.value.code == 2

    def test_every_config_field_is_an_option(self):
        fields = [f.name for f in dataclasses.fields(cli.ScenarioConfig)]
        argv = ["--" + name.replace("_", "-") for name in fields[1:]]
        parsed = cli._parse_args(
            ["angle", *(arg for flag in argv for arg in (flag, "1"))]
        )
        assert all(getattr(parsed, name) is not None for name in fields)

    def test_replay_drops_a_recorded_basis(self, tmp_path):
        _, first = _run(tmp_path / "a", "angle")
        report = json.loads((first / "angle_report.json").read_text())
        report["config"]["basis"] = "x"
        old = tmp_path / "old_report.json"
        old.write_text(json.dumps(report))
        code = cli.main(["--config", str(old), "--out", str(tmp_path / "b")])
        assert code == 0
        replayed = json.loads((tmp_path / "b" / "angle_report.json").read_text())
        assert "basis" not in replayed["config"]
        assert replayed["outputs"] == report["outputs"]

    def test_negative_outcome_parses(self, tmp_path):
        code, out = _run(tmp_path, "figure1", "--outcome", "-1")
        assert code == 0
        report = json.loads((out / "figure1_report.json").read_text())
        assert report["config"]["outcome"] == -1


class TestAngleScenario:
    def test_reports_reference_kinematics(self, tmp_path):
        code, out = _run(tmp_path, "angle")
        assert code == 0
        report = json.loads((out / "angle_report.json").read_text())
        kin = report["kinematics"]
        assert kin["gamma_beta"] == pytest.approx(10.0, rel=1e-12)
        assert kin["gamma_p"] == pytest.approx(1.2, rel=1e-12)
        assert kin["wigner_half_angle_sine"] == pytest.approx(
            math.sqrt(9.0 / 130.0), abs=1e-12
        )
        outputs = report["outputs"]
        assert outputs["wigner_angle_negative_momentum"] == pytest.approx(
            -outputs["wigner_angle_positive_momentum"], abs=1e-15
        )


class TestFigure1:
    def test_scalars_do_not_depend_on_the_grid(self, tmp_path):
        code, out = _run(tmp_path, "figure1", "--grid-points", "5")
        assert code == 0
        outputs = json.loads((out / "figure1_report.json").read_text())["outputs"]
        assert outputs["visibility_psi"] == pytest.approx(56.0 / 65.0, abs=1e-12)
        assert outputs["min_to_max_psi"] == pytest.approx(9.0 / 121.0, abs=1e-12)

    def test_default_curves(self, tmp_path):
        code, out = _run(tmp_path, "figure1")
        assert code == 0
        header, data = _read_csv(out / "figure1.csv")
        assert header == ["y_over_compton", "density_phi", "density_psi"]
        y, phi, psi = data.T
        p = json.loads((out / "figure1_report.json").read_text())["kinematics"]["p"]
        # pure branch has genuine zeros, mixed branch has lifted minima
        assert phi.min() == pytest.approx(0.0, abs=1e-12)
        assert psi.min() / psi.max() == pytest.approx(9.0 / 121.0, abs=1e-6)
        grid_w = y[1] - y[0]
        zero_idx = np.argmin(np.abs(y - math.pi / p))
        assert abs(y[zero_idx] - math.pi / p) <= grid_w
        assert phi[zero_idx] <= 1e-10 * phi.max()

    def test_no_boost_collapses_the_gap(self, tmp_path):
        code, out = _run(tmp_path, "figure1", "--gamma-beta", "1")
        assert code == 0
        _, data = _read_csv(out / "figure1.csv")
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1e-12)

    def test_outcome_toggle_yields_identical_bytes(self, tmp_path):
        _, out_minus = _run(tmp_path / "a", "figure1", "--outcome", "-1")
        _, out_plus = _run(tmp_path / "b", "figure1", "--outcome", "+1")
        assert (out_minus / "figure1.csv").read_bytes() == (
            out_plus / "figure1.csv"
        ).read_bytes()

    def test_determinism(self, tmp_path):
        _, first = _run(tmp_path / "a", "figure1")
        _, second = _run(tmp_path / "b", "figure1")
        assert (first / "figure1.csv").read_bytes() == (second / "figure1.csv").read_bytes()
        r1 = json.loads((first / "figure1_report.json").read_text())
        r2 = json.loads((second / "figure1_report.json").read_text())
        r1["config"]["out"] = r2["config"]["out"]
        assert r1 == r2

    def test_config_echo_round_trip(self, tmp_path):
        _, first = _run(tmp_path / "a", "figure1", "--gamma-beta", "7", "--v", "0.3")
        code = cli.main(
            [
                "--config",
                str(first / "figure1_report.json"),
                "--out",
                str(tmp_path / "b"),
            ]
        )
        assert code == 0
        assert (first / "figure1.csv").read_bytes() == (
            tmp_path / "b" / "figure1.csv"
        ).read_bytes()

    def test_config_scenario_conflict(self, tmp_path):
        _, first = _run(tmp_path / "a", "figure1")
        code = cli.main(
            ["paradox", "--config", str(first / "figure1_report.json")]
        )
        assert code == 2


class TestFigure2:
    def test_default_curves(self, tmp_path):
        code, out = _run(tmp_path, "figure2")
        assert code == 0
        header, data = _read_csv(out / "figure2.csv")
        assert header == ["y_over_compton", "density_spin_x", "density_spin_z"]
        y, dx, dz = data.T
        weights = np.gradient(y)
        assert np.sum(weights * dx) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(weights * dz) == pytest.approx(1.0, abs=1e-6)
        report = json.loads((out / "figure2_report.json").read_text())
        assert report["outputs"]["sup_norm_difference"] > 0.0
        assert report["kinematics"]["beta"] == 0.995

    def test_no_boost_makes_the_curves_coincide(self, tmp_path):
        code, out = _run(tmp_path, "figure2", "--beta", "0")
        assert code == 0
        _, data = _read_csv(out / "figure2.csv")
        np.testing.assert_allclose(data[:, 1], data[:, 2], atol=1e-12)

    def test_k_factor_short_spelling_is_an_alias(self, tmp_path):
        small = ["--grid-points", "512", "--p-grid-points", "512"]
        _, short = _run(tmp_path / "a", "figure2", "--k-factor", "sqrt", *small)
        _, full = _run(
            tmp_path / "b", "figure2", "--k-factor", "sqrt_m_over_p0", *small
        )
        assert (short / "figure2.csv").read_bytes() == (
            full / "figure2.csv"
        ).read_bytes()

    def test_k_factor_variants_differ(self, tmp_path):
        _, out_sqrt = _run(tmp_path / "a", "figure2")
        _, out_unity = _run(tmp_path / "b", "figure2", "--k-factor", "unity")
        _, sqrt_data = _read_csv(out_sqrt / "figure2.csv")
        _, unity_data = _read_csv(out_unity / "figure2.csv")
        assert np.max(np.abs(sqrt_data[:, 2] - unity_data[:, 2])) > 1e-6


class TestRatioScenario:
    def test_reference_parameters(self, tmp_path):
        code, out = _run(tmp_path, "ratio")
        assert code == 0
        outputs = json.loads((out / "ratio_report.json").read_text())["outputs"]
        assert outputs["r_psi"] > outputs["r_phi"] > 0.0
        assert outputs["ratio_of_ratios"] == pytest.approx(
            outputs["r_psi"] / outputs["r_phi"], rel=1e-12
        )

    def test_coarse_grid_is_exact(self, tmp_path):
        code, out = _run(tmp_path, "ratio", "--grid-points", "5")
        assert code == 0
        _assert_oracle_ratios(json.loads((out / "ratio_report.json").read_text())["outputs"])

    # cases a detector sampled on the default grid gets wrong: an
    # under-sampled kernel (grid step 6.1 against w = 1) and kernels
    # truncated by the window
    @pytest.mark.parametrize(
        "argv,where",
        [
            (
                ["--gamma-beta", "1000", "--v", "0.001"],
                {"gamma_beta": 1000.0, "gamma_p": oracles.gamma_mp(0.001)},
            ),
            (["--gamma-p", "10"], {"gamma_p": 10.0}),
            (["--w", "30"], {"w": 30.0}),
        ],
    )
    def test_kernel_unresolved_by_the_grid_is_exact(self, tmp_path, argv, where):
        code, out = _run(tmp_path, "ratio", *argv)
        assert code == 0
        outputs = json.loads((out / "ratio_report.json").read_text())["outputs"]
        _assert_oracle_ratios(outputs, **where)

    @settings(max_examples=150, deadline=None)
    @given(
        v=st.floats(1e-3, 0.99),
        gamma_beta=st.floats(1.01, 1001.0),
        w=st.floats(1.0, 30.0),
        mode=st.sampled_from(["linear", "physical"]),
        prep=st.sampled_from(["plus_y", "minus_y", "confined"]),
    )
    def test_whole_domain_matches_the_oracle(
        self, tmp_path_factory, v, gamma_beta, w, mode, prep
    ):
        out = tmp_path_factory.mktemp("sweep")
        argv = ["ratio", "--v", repr(v), "--gamma-beta", repr(gamma_beta)]
        argv += ["--w", repr(w), "--mode", mode, "--prep", prep, "--out", str(out)]
        assert cli.main(argv) == 0
        outputs = json.loads((out / "ratio_report.json").read_text())["outputs"]
        _assert_oracle_ratios(
            outputs, gamma_beta=gamma_beta, gamma_p=oracles.gamma_mp(v), w=w, mode=mode
        )


class TestSignalingScenario:
    def test_linear_mode_signals(self, tmp_path):
        code, out = _run(tmp_path, "signaling")
        assert code == 0
        outputs = json.loads((out / "signaling_report.json").read_text())["outputs"]
        assert outputs["sup_gap"] > 1e-6
        header, data = _read_csv(out / "signaling.csv")
        assert header == ["y_over_compton", "detect_prob_psi", "detect_prob_phi"]
        assert np.max(np.abs(data[:, 1] - data[:, 2])) == pytest.approx(
            outputs["sup_gap"], rel=1e-9
        )

    def test_physical_mode_does_not(self, tmp_path):
        code, out = _run(tmp_path, "signaling", "--mode", "physical")
        assert code == 0
        outputs = json.loads((out / "signaling_report.json").read_text())["outputs"]
        assert outputs["sup_gap"] <= 1e-12


class TestParadoxScenario:
    def test_linear_mode_exhibits_the_gap(self, tmp_path):
        code, out = _run(tmp_path, "paradox")
        assert code == 0
        outputs = json.loads((out / "paradox_report.json").read_text())["outputs"]
        assert outputs["signaling_sup"] > 0.0
        assert outputs["r_psi"] > outputs["r_phi"]
        for key in ("collapse_probability_z+", "collapse_probability_x-"):
            assert outputs[key] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("prep", ["plus_y", "minus_y", "confined"])
    def test_physical_mode_restores_no_signaling(self, tmp_path, prep):
        code, out = _run(tmp_path, "paradox", "--mode", "physical", "--prep", prep)
        assert code == 0
        outputs = json.loads((out / "paradox_report.json").read_text())["outputs"]
        assert outputs["signaling_sup"] <= 1e-12
        assert outputs["r_psi"] == pytest.approx(outputs["r_phi"], rel=1e-12)

    def test_large_boost_small_velocity_approaches_three_halves(self, tmp_path):
        code, out = _run(
            tmp_path, "paradox", "--gamma-beta", "1000", "--v", "0.05", "--w", "1"
        )
        assert code == 0
        outputs = json.loads((out / "paradox_report.json").read_text())["outputs"]
        assert outputs["ratio_of_ratios"] == pytest.approx(1.499, abs=0.01)


class TestComputeOnce:
    @pytest.mark.parametrize(
        "scenario,curves,ratios",
        [("signaling", 2, 2), ("paradox", 0, 2), ("ratio", 0, 2)],
    )
    def test_each_statistic_is_computed_once(
        self, tmp_path, monkeypatch, scenario, curves, ratios
    ):
        from spinboost import detection

        calls = {"detection_curve": 0, "detection_ratio": 0}

        def counted(name):
            original = getattr(detection, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapper = counted(name)
            monkeypatch.setattr(detection, name, wrapper)
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, wrapper)
        code, _ = _run(tmp_path, scenario, "--grid-points", "1025")
        assert code == 0
        assert calls == {"detection_curve": curves, "detection_ratio": ratios}


class TestContractGate:
    def test_signaling_physical_mode_violation_exits_3(self, tmp_path, monkeypatch):
        # cannot occur with the real maps (the physical map factorizes
        # exactly), so inject a corrupted discriminator to prove the gate
        from spinboost.detection import SignalingReport

        def corrupted(*args, **kwargs):
            return SignalingReport(r_psi=1.0, r_phi=1.0, ratio_gap=0.0, sup_gap=1.0)

        monkeypatch.setattr(cli, "signaling_discriminator", corrupted)
        code = cli.main(
            ["paradox", "--mode", "physical", "--out", str(tmp_path / "out")]
        )
        assert code == 3

    # ratios below the float floor of 1 - V, whose printed digits would be wrong
    @pytest.mark.parametrize(
        "argv",
        [
            ["ratio", "--p", "1e-200", "--mode", "physical"],
            ["ratio", "--p", "1e-9", "--mode", "physical"],
            ["ratio", "--v", "1e-5"],
            ["ratio", "--v", "1e-7"],
            ["ratio", "--v", "1e-8"],
            ["signaling", "--v", "1e-7"],
            ["paradox", "--v", "1e-7", "--mode", "physical"],
        ],
    )
    def test_ratio_below_the_float_floor_exits_3(self, tmp_path, argv):
        code, out = _run(tmp_path, *argv)
        assert code == 3
        assert not (out / f"{argv[0]}_report.json").exists()

    def test_smallest_ratio_of_the_swept_domain_is_printed(self, tmp_path):
        # v = 1e-3 and w = 1 is the corner of the hypothesis sweep below
        code, out = _run(tmp_path, "ratio", "--v", "0.001", "--gamma-beta", "1.01")
        assert code == 0
        outputs = json.loads((out / "ratio_report.json").read_text())["outputs"]
        _assert_oracle_ratios(outputs, gamma_beta=1.01, gamma_p=oracles.gamma_mp(0.001))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "spinboost",
                "angle",
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "wigner_angle" in result.stdout
        assert (tmp_path / "out" / "angle_report.json").exists()
