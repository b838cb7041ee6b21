import csv
import json

import pytest

from fcqw.cli import main
from fcqw.harness import (
    ConfigError,
    ExperimentConfig,
    check_result_dir,
    content_hash,
    load_config,
    resolved_config_dict,
    run_experiment,
    validate_config,
)
from fcqw.qasm import parse_qasm3


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def chiral_config(tmp_path, **overrides):
    data = {
        "kind": "chiral_propagation",
        "L": 8,
        "steps": [2, 5, 8],
        "W": 2.0,
        "profile": "box",
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return data


class TestValidation:
    def test_unknown_keys_rejected_by_name(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(chiral_config(tmp_path, wobble=3, zap=1))
        assert err.value.fields == ["wobble", "zap"]

    def test_missing_required_fields_named(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"kind": "chiral_robustness", "L": 8})
        assert "W_values" in err.value.fields and "steps" in err.value.fields

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "quantum_leap"})

    def test_invalid_values_named(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(chiral_config(tmp_path, profile="triangle", start_site=99))
        assert set(err.value.fields) == {"profile", "start_site"}

    def test_nested_noise_keys_checked(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(chiral_config(tmp_path, noise={"p_cnot": 0.01, "zap": 1}))
        assert err.value.fields == ["zap"]

    def test_noise_seed_defaults_to_config_seed(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path, noise={"p_cnot": 0.01}, seed=42))
        assert cfg.noise.seed == 42

    def test_points_sharing_a_noise_stream_key_rejected(self, tmp_path):
        robustness = {"kind": "chiral_robustness", "L": 8, "steps": [2], "W_values": [1.0, 1.0004]}
        with pytest.raises(ConfigError) as err:
            validate_config(robustness)
        assert err.value.fields == ["W_values"]
        localization = {
            "kind": "nonchiral_localization", "L": 8, "times": [0.1, 0.1004], "W_values": [0.0],
        }
        with pytest.raises(ConfigError) as err:
            validate_config(localization)
        assert err.value.fields == ["times"]
        validate_config(dict(robustness, W_values=[1.0, 1.001]))
        for bad in ([1.0, "x"], [float("nan")]):  # no key at all
            with pytest.raises(ConfigError) as err:
                validate_config(dict(robustness, W_values=bad))
            assert err.value.fields == ["W_values"]

    @pytest.mark.parametrize(
        "field, value",
        [("L", 1), ("realizations", 0), ("realizations", 2.5), ("W", float("nan")), ("J", "x")],
        ids=["L_1", "realizations_0", "realizations_2.5", "W_nan", "J_string"],
    )
    def test_disorder_spectra_field_rejected(self, tmp_path, capsys, field, value):
        data = {"kind": "disorder_spectra", "L": 6, "W": 4.0, "realizations": 2,
                "output_dir": str(tmp_path / "spec")}
        data[field] = value
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert err.value.fields == [field]
        assert main(["run", str(write_config(tmp_path, data))]) == 2
        assert field in capsys.readouterr().err

    def test_load_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, chiral_config(tmp_path)))
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.W == 2.0


class TestContentHash:
    def test_stable_and_sensitive(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path))
        a = content_hash(resolved_config_dict(cfg))
        b = content_hash(resolved_config_dict(cfg))
        assert a == b and len(a) == 40
        cfg2 = validate_config(chiral_config(tmp_path, W=3.0))
        assert content_hash(resolved_config_dict(cfg2)) != a


class TestChiralPropagation:
    def test_noiseless_run_produces_expected_artifacts(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path))
        outdir = run_experiment(cfg)
        assert (outdir / "manifest.json").exists()
        assert (outdir / "checks.json").exists()
        assert (outdir / "site_density_W2.csv").exists()
        assert (outdir / "summary_W2.csv").exists()
        report = json.loads((outdir / "checks.json").read_text())
        assert report["all_passed"]

    def test_site_csv_has_unit_probability_at_ballistic_site(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path))
        outdir = run_experiment(cfg)
        with open(outdir / "site_density_W2.csv") as fh:
            rows = list(csv.DictReader(fh))
        # sites are labelled 1..L in reports; start site 0 -> label 1
        for t in (2, 5, 8):
            expected_label = (0 + t) % 8 + 1
            peak = [
                r for r in rows if int(r["step"]) == t and int(r["site"]) == expected_label
            ]
            assert len(peak) == 1
            assert abs(float(peak[0]["probability"]) - 1.0) < 1e-12

    def test_emitted_qasm_parses_back(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path))
        outdir = run_experiment(cfg)
        circ = parse_qasm3((outdir / "circuit_W2_t5.qasm").read_text())
        assert circ.num_qubits == 8
        # five steps of eight rz gates and seven swaps
        assert len(circ.instructions) == 5 * 15

    def test_reproducible_byte_identical_csvs(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path))
        out1 = run_experiment(cfg, tmp_path / "a")
        out2 = run_experiment(cfg, tmp_path / "b")
        for name in ("site_density_W2.csv", "summary_W2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_noisy_run_records_mitigation_table(self, tmp_path):
        cfg = validate_config(
            chiral_config(tmp_path, noise={"p_cnot": 0.007}, shots=2000)
        )
        outdir = run_experiment(cfg)
        assert (outdir / "mitigation_W2.csv").exists()
        report = json.loads((outdir / "checks.json").read_text())
        assert report["all_passed"]


class TestChiralRobustness:
    def test_noiseless_ipr_constant(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "chiral_robustness",
                "L": 8,
                "steps": [2, 5, 8],
                "W_values": [0.0, 1.0, 2.0, 3.0, 4.0],
                "profile": "box",
                "seed": 0,
                "output_dir": str(tmp_path / "rob"),
            }
        )
        outdir = run_experiment(cfg)
        for W in (0, 1, 2, 3, 4):
            with open(outdir / f"summary_W{W}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert all(abs(float(r["ipr"]) - 1.0) < 1e-12 for r in rows)
        assert json.loads((outdir / "checks.json").read_text())["all_passed"]


class TestNonchiralLocalization:
    def test_single_particle_method_checks_pass(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "nonchiral_localization",
                "L": 20,
                "times": [0.1, 0.48, 0.86, 1.24, 1.62, 2.0],
                "W_values": [0.0, 6.0],
                "profile": "box",
                "start_site": 3,
                "method": "single_particle",
                "seed": 0,
                "output_dir": str(tmp_path / "loc"),
            }
        )
        outdir = run_experiment(cfg)
        report = json.loads((outdir / "checks.json").read_text())
        names = {c["name"]: c["passed"] for c in report["checks"]}
        assert names["localization_ipr_ratio"]
        assert names["confinement_beyond_barrier"]

    def test_statevector_fine_step_meets_confinement_bars(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "nonchiral_localization",
                "L": 8,
                "times": [0.5, 1.0, 2.0],
                "W_values": [0.0, 6.0],
                "profile": "box",
                "start_site": 3,
                "method": "statevector",
                "trotter_n": 8,
                "seed": 0,
                "output_dir": str(tmp_path / "loc_fine"),
            }
        )
        outdir = run_experiment(cfg)
        report = json.loads((outdir / "checks.json").read_text())
        assert report["all_passed"]
        assert {c["name"] for c in report["checks"]} == {
            "localization_ipr_ratio",
            "confinement_beyond_barrier",
        }

    def test_coarse_trotter_step_skips_continuum_bars(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "nonchiral_localization",
                "L": 6,
                "times": [1.0, 2.0],
                "W_values": [0.0, 6.0],
                "profile": "custom",
                "custom_u": [0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                "start_site": 3,
                "method": "statevector",
                "trotter_n": 2,
                "seed": 0,
                "output_dir": str(tmp_path / "loc_coarse"),
            }
        )
        outdir = run_experiment(cfg)
        report = json.loads((outdir / "checks.json").read_text())
        assert report["checks"] == []

    def test_statevector_method_writes_qasm(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "nonchiral_localization",
                "L": 6,
                "times": [0.3, 0.9],
                "W_values": [0.0],
                "profile": "custom",
                "custom_u": [0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                "start_site": 3,
                "method": "statevector",
                "seed": 0,
                "output_dir": str(tmp_path / "loc_sv"),
            }
        )
        outdir = run_experiment(cfg)
        assert (outdir / "circuit_W0.qasm").exists()
        parse_qasm3((outdir / "circuit_W0.qasm").read_text())


class TestDisorderSpectra:
    def test_small_ensemble_checks_pass(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "disorder_spectra",
                "L": 12,
                "W": 4.0,
                "realizations": 10,
                "seed": 2,
                "output_dir": str(tmp_path / "spec"),
            }
        )
        outdir = run_experiment(cfg)
        report = json.loads((outdir / "checks.json").read_text())
        assert report["all_passed"]
        with open(outdir / "spectra.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["model"] for r in rows} == {"chiral", "nonchiral"}
        assert len(rows) == 2 * 10 * 12


class TestAmplitudeScaling:
    def test_steps_axis_run(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "amplitude_scaling",
                "L": 8,
                "axis": "steps_at_fixed_L",
                "values": [2, 4, 6, 8],
                "noise": {"p_cnot": 0.007, "p_1q": 0.0003, "p_readout": 0.01},
                "shots": 1500,
                "sweep_seeds": 2,
                "seed": 4,
                "output_dir": str(tmp_path / "scaling"),
            }
        )
        outdir = run_experiment(cfg)
        report = json.loads((outdir / "checks.json").read_text())
        assert report["all_passed"]
        with open(outdir / "decay.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["x"]) for r in rows] == [2, 4, 6, 8]

    def test_noise_required(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "amplitude_scaling",
                "axis": "steps_at_fixed_L",
                "values": [1, 2],
                "seed": 0,
                "output_dir": str(tmp_path / "x"),
            }
        )
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestCheckResultDir:
    def test_tampered_manifest_fails(self, tmp_path):
        cfg = validate_config(chiral_config(tmp_path))
        outdir = run_experiment(cfg)
        ok, _ = check_result_dir(outdir)
        assert ok
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest["config"]["W"] = 99.0
        (outdir / "manifest.json").write_text(json.dumps(manifest))
        ok, messages = check_result_dir(outdir)
        assert not ok
        assert any("hash" in m for m in messages)

    def test_missing_dir(self, tmp_path):
        ok, messages = check_result_dir(tmp_path / "nope")
        assert not ok


class TestCli:
    def test_run_and_check_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, chiral_config(tmp_path))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert main(["check", str(tmp_path / "out")]) == 0

    def test_emit_qasm(self, tmp_path, capsys):
        path = write_config(tmp_path, chiral_config(tmp_path))
        assert main(["emit-qasm", str(path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3  # one file per measured step

    def test_bad_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"kind": "chiral_propagation"})
        assert main(["run", str(path)]) == 2

    def test_config_error_during_run_exit_code(self, tmp_path, capsys):
        data = {"kind": "amplitude_scaling", "axis": "steps_at_fixed_L", "values": [1, 2],
                "output_dir": str(tmp_path / "x")}
        assert main(["run", str(write_config(tmp_path, data))]) == 2
        assert "noise" in capsys.readouterr().err

    def test_crash_during_run_exit_code(self, tmp_path, capsys):
        data = {"kind": "chiral_propagation", "L": 4, "steps": [-1],
                "output_dir": str(tmp_path / "x" / "y")}
        assert main(["run", str(write_config(tmp_path, data))]) == 3
        assert capsys.readouterr().err.startswith("error: run crashed: ValueError")
        assert not (tmp_path / "x").exists()  # every directory the run created is gone

    def test_crash_leaves_existing_output_dir_alone(self, tmp_path, capsys):
        outdir = tmp_path / "x"
        outdir.mkdir()
        (outdir / "keep.txt").write_text("kept")
        data = {"kind": "chiral_propagation", "L": 4, "steps": [-1], "output_dir": str(outdir)}
        assert main(["run", str(write_config(tmp_path, data))]) == 3
        assert (outdir / "keep.txt").read_text() == "kept"

    def test_crash_during_emit_qasm_exit_code(self, tmp_path, capsys):
        data = {"kind": "chiral_propagation", "L": 4, "steps": [-1],
                "output_dir": str(tmp_path / "x")}
        assert main(["emit-qasm", str(write_config(tmp_path, data))]) == 3
        assert capsys.readouterr().err.startswith("error: run crashed: ValueError")
        assert not (tmp_path / "x").exists()

    def test_config_error_during_emit_qasm_exit_code(self, tmp_path, monkeypatch, capsys):
        def reject(cfg, outdir):
            raise ConfigError("rejected during emission", ["steps"])

        monkeypatch.setattr("fcqw.cli.emit_experiment_qasm", reject)
        path = write_config(tmp_path, chiral_config(tmp_path))
        assert main(["emit-qasm", str(path)]) == 2
        assert "steps" in capsys.readouterr().err
