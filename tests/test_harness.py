import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fcqw import floquet
from fcqw.cli import main
from fcqw.harness import (
    _COMMON_KEYS,
    _KIND_KEYS,
    ConfigError,
    ExperimentConfig,
    check_result_dir,
    content_hash,
    emit_experiment_qasm,
    load_config,
    resolved_config_dict,
    run_experiment,
    validate_config,
)
from test_qasm import parse_qasm3


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
        noise = {"p_cnot": 0.01}
        robustness = {"kind": "chiral_robustness", "L": 8, "steps": [2], "W_values": [1.0, 1.0004],
                      "noise": noise}
        with pytest.raises(ConfigError) as err:
            validate_config(robustness)
        assert err.value.fields == ["W_values"]
        localization = {
            "kind": "nonchiral_localization", "L": 8, "times": [0.1, 0.1004],
            "W_values": [0.0, 1.0], "noise": noise,
        }
        with pytest.raises(ConfigError) as err:
            validate_config(localization)
        assert err.value.fields == ["times"]
        validate_config(dict(robustness, W_values=[1.0, 1.001]))
        for bad in ([1.0, "x"], [float("nan")]):  # no key at all
            with pytest.raises(ConfigError) as err:
                validate_config(dict(robustness, W_values=bad))
            assert err.value.fields == ["W_values"]

    @pytest.mark.parametrize("name, values", [
        ("W_values", [1.0, 1.0004]),
        ("W_values", [1e30, 2e30]),
        ("W_values", [0.0, 4294967.296]),
        ("times", [0.1, 0.1004]),
    ])
    def test_noiseless_points_may_share_a_stream_key(self, tmp_path, name, values):
        # without a noise block no point keys a stream
        data = {
            "W_values": {"kind": "chiral_robustness", "L": 8, "steps": [2]},
            "times": {"kind": "nonchiral_localization", "L": 8, "W_values": [0.0, 1.0]},
        }[name]
        data = {**data, name: values, "output_dir": str(tmp_path / "out")}
        assert getattr(validate_config(data), name) == values
        # it runs to the end; the localization bars fail at so short a time
        assert main(["run", str(write_config(tmp_path, data))]) in (0, 1)

    def test_noiseless_w_values_sharing_a_file_tag_rejected(self):
        robustness = {"kind": "chiral_robustness", "L": 8, "steps": [2],
                      "W_values": [1234567.0, 1234568.0]}  # both tag as W1.23457e+06
        with pytest.raises(ConfigError) as err:
            validate_config(robustness)
        assert err.value.fields == ["W_values"]

    @pytest.mark.parametrize(
        "kind, name, values",
        [
            ("chiral_robustness", "W_values", [0.0, 4294967.296]),
            ("chiral_robustness", "W_values", [-0.001, 4294967.295]),
            ("nonchiral_localization", "times", [0.1, 0.1 + 4294967.296]),
        ],
        ids=["W_0_and_2^32/1000", "W_-0.001_and_(2^32-1)/1000", "times_0.1_apart_by_2^32/1000"],
    )
    def test_points_sharing_a_masked_stream_key_rejected(self, tmp_path, capsys, kind, name, values):
        # derived_seed keys a stream by each key mod 2^32: these two points
        # would read one and the same noise stream
        points = {"steps": [2, 3]} if kind == "chiral_robustness" else {"times": [0.1]}
        data = {"kind": kind, "L": 6, **points, "W_values": [0.0, 1.0],
                "noise": {"p_cnot": 0.05, "p_readout": 0.02}, "shots": 500, "seed": 3,
                "output_dir": str(tmp_path / "out")}
        validate_config({**data, name: [values[0], values[0] + 1.0]})
        data[name] = values
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert err.value.fields == [name]
        assert main(["run", str(write_config(tmp_path, data))]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base, key",
        [("exact", "L"), ("chiral", "steps"), ("scaling", "values"), ("trotter", "trotter_n"),
         ("spectra", "realizations"), ("scaling", "sweep_seeds"), ("noisy", "shots")],
    )
    def test_count_fields_stop_at_the_largest_stream_key(self, tmp_path, capsys, base, key):
        data = {
            "exact": {"kind": "nonchiral_localization", "L": 4, "times": [0.1],
                      "W_values": [0.0, 1.0], "method": "single_particle"},
            "chiral": {"kind": "chiral_propagation", "L": 4, "steps": [1]},
            "noisy": {"kind": "chiral_propagation", "L": 4, "steps": [1],
                      "noise": {"p_cnot": 0.01}},
            "trotter": {"kind": "nonchiral_localization", "L": 4, "times": [0.1],
                        "W_values": [0.0, 1.0], "method": "statevector"},
            "spectra": {"kind": "disorder_spectra", "L": 4, "W": 1.0, "realizations": 3},
            "scaling": {"kind": "amplitude_scaling", "axis": "steps_at_fixed_L", "L": 4,
                        "values": [1, 2, 3], "noise": {"p_cnot": 0.01}},
        }[base]
        data = {**data, "output_dir": str(tmp_path / "out")}

        def with_count(n):
            return {**data, key: [1, 2, n] if key == "values" else [n] if key == "steps" else n}

        validate_config(with_count(2**32 - 1))  # validated only: no run of that size
        for n in (2**32, 10**40):
            with pytest.raises(ConfigError) as err:
                validate_config(with_count(n))
            assert err.value.fields == [key]
        assert main(["run", str(write_config(tmp_path, with_count(10**40)))]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "base, key, value, field",
        [
            ("chiral", "L", "8", "L"),
            ("chiral", "L", 30, "L"),
            ("chiral", "L", 1, "L"),
            ("noisy", "shots", 2.5, "shots"),
            ("localization", "trotter_n", 2.5, "trotter_n"),
            ("chiral", "steps", [-1], "steps"),
            ("chiral", "steps", [2, 2], "steps"),
            ("noisy", "steps", [], "steps"),
            ("scaling", "values", ["a"], "values"),
            ("scaling", "values", [1.5], "values"),
            ("localization", "times", [], "times"),
            ("localization", "W_values", [], "W_values"),
            ("robustness", "W_values", [], "W_values"),
            ("localization", "W_values", [6.0], "W_values"),
            ("robustness", "W_values", [6.0], "W_values"),
            ("robustness", "W_values", [1234567.0, 1234568.0], "W_values"),
            ("robustness", "W_values", [1e306], "W_values"),
            ("localization", "times", [1e306], "times"),
            ("noisy", "W", 1e306, "W"),
            ("localization", "method", "single_particle", "method"),
            ("noisy", "seed", -1, "seed"),
            ("chiral", "start_site", 1.5, "start_site"),
            ("chiral", "profile", "box", "profile"),
            ("scaling", "sweep_seeds", 0, "sweep_seeds"),
            ("chiral", "output_dir", 5, "output_dir"),
            ("chiral", "noise", 5, "noise"),
            ("chiral", "noise", {"p_cnot": "x"}, "p_cnot"),
            ("scaling", "noise", None, "noise"),
            ("scaling", "values", [1, 1, 2, 3], "values"),
            ("scaling", "values", [2], "values"),
            ("scaling", "values", [2, 4], "values"),
            ("exact", "J", 1e308, "J"),
            ("trotter", "J", 1e308, "J"),
            ("spectra", "J", 1e308, "J"),
            ("spectra", "J", 10**400, "J"),
            ("spectra", "J", 8e307, "J"),
            ("noisy", "W", 10**400, "W"),
            ("localization", "times", [10**400], "times"),
            ("chiral", "noise", {"p_cnot": 10**400}, "p_cnot"),
            ("noisy", "shots", 0, "shots"),
            ("noisy", "shots", -1, "shots"),
            ("noisy", "shots", 2**32 + 1, "shots"),
            ("noisy", "seed", 2.5, "seed"),
            ("spectra", "noise", {"p_cnot": 0.5}, "noise"),
            ("chiral", "chirality", "right", "chirality"),
            ("chiral", "chirality", "left", "chirality"),
            ("chiral", "custom_u", [0.0, 1.0, 0.0, 0.0], "custom_u"),
            ("chiral", "profile", "custom", "profile"),
            ("noisy", "noise", {"p_cnot": 0.01, "seed": 0}, "seed"),
            ("scaling", "axis", "sideways", "axis"),
            ("scaling", "values", [], "values"),
        ],
        ids=[
            "L_string", "L_30", "L_1", "shots_2.5", "trotter_n_2.5", "steps_negative",
            "steps_duplicate", "steps_empty", "values_string", "values_1.5", "times_empty",
            "W_values_empty_localization", "W_values_empty_robustness",
            "W_values_one_localization", "W_values_one_robustness",
            "W_values_sharing_a_file_tag", "W_values_past_the_key_range",
            "times_past_the_key_range", "W_past_the_key_range",
            "method_single_particle_with_noise", "seed_negative", "start_site_1.5",
            "box_profile_at_L4", "sweep_seeds_0", "output_dir_number",
            "noise_not_an_object", "noise_probability_string", "scaling_without_noise",
            "values_duplicate", "values_one_point", "values_two_points",
            "hopping_overflows_exact", "hopping_overflows_trotter", "hopping_overflows_spectra",
            "J_past_the_float_range", "spectra_energy_bound_overflows",
            "W_past_the_float_range", "times_past_the_float_range",
            "noise_probability_past_the_float_range",
            "shots_0", "shots_negative", "shots_past_2^32", "seed_2.5",
            "spectra_with_noise", "chirality_right", "chirality_left", "custom_u",
            "profile_custom", "noise_seed", "axis_unknown", "values_empty",
        ],
    )
    def test_field_rejected(self, tmp_path, capsys, base, key, value, field):
        noise = {"p_cnot": 0.01}
        data = {
            "chiral": {"kind": "chiral_propagation", "L": 4, "steps": [1]},
            "noisy": {"kind": "chiral_propagation", "L": 4, "steps": [1], "noise": noise},
            "robustness": {"kind": "chiral_robustness", "L": 4, "steps": [1],
                           "W_values": [0.0, 1.0], "noise": noise},
            "localization": {"kind": "nonchiral_localization", "L": 4, "times": [0.1],
                             "W_values": [0.0, 1.0], "noise": noise},
            "exact": {"kind": "nonchiral_localization", "L": 4, "times": [0.1],
                      "W_values": [0.0, 1.0], "method": "single_particle"},
            "trotter": {"kind": "nonchiral_localization", "L": 4, "times": [0.1],
                        "W_values": [0.0, 1.0], "method": "statevector"},
            "spectra": {"kind": "disorder_spectra", "L": 4, "W": 1.0, "realizations": 3},
            "scaling": {"kind": "amplitude_scaling", "axis": "steps_at_fixed_L", "L": 4,
                        "values": [1, 2, 3], "noise": noise},
        }[base]
        validate_config(data)  # the base config itself is valid
        data = {"output_dir": str(tmp_path / "out"), **data, key: value}
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert err.value.fields == [field]
        assert main(["run", str(write_config(tmp_path, data))]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, fields",
        [
            ({"method": "statevector", "W_values": [1e300], "times": [1e300]},
             ["times", "W_values"]),
            ({"method": "statevector", "J": 1e300, "times": [1e300]}, ["J", "times"]),
            ({"method": "single_particle", "W_values": [0.0, 1e308]}, ["W_values"]),
            ({"method": "single_particle", "J": 8e307}, ["J"]),
            ({"method": "single_particle", "W_values": [1e300], "times": [1e300]},
             ["times", "W_values"]),
        ],
        ids=["trotter_onsite_angle", "trotter_hop_angle",
             "exact_onsite_phase", "exact_energy_bound", "exact_phase_times_t"],
    )
    def test_overflowing_products_name_their_fields(self, extra, fields):
        data = {"kind": "nonchiral_localization", "L": 4, "times": [0.1], "W_values": [0.0, 1.0]}
        with pytest.raises(ConfigError) as err:
            validate_config({**data, **extra})
        assert err.value.fields == fields

    def test_values_at_the_bound_run(self, tmp_path, capsys):
        data = {"kind": "chiral_propagation", "L": 4, "steps": [1], "W": 1e90,
                "output_dir": str(tmp_path / "out")}
        assert main(["run", str(write_config(tmp_path, data))]) == 0
        capsys.readouterr()
        # every real at the bound: the energy bound times the time is finite
        exact = {"kind": "nonchiral_localization", "L": 4, "times": [1e90],
                 "W_values": [1.0, -1e90], "method": "single_particle", "J": 1e90}
        for method in ("single_particle", "statevector"):
            outdir = tmp_path / method
            config = dict(exact, method=method, output_dir=str(outdir))
            assert main(["run", str(write_config(tmp_path, config))]) in (0, 1)
            assert _csv_cells_finite(outdir)
        capsys.readouterr()
        with pytest.raises(ConfigError) as err:
            validate_config(dict(exact, J=math.nextafter(1e90, math.inf)))
        assert err.value.fields == ["J"]

    def test_overflowing_exact_propagator_rejected(self, tmp_path, capsys):
        # every density of this run was nan, and it recorded no check
        data = {"kind": "nonchiral_localization", "L": 8, "J": 1e200, "method": "single_particle",
                "W_values": [0.0, 1.0], "times": [1e200], "output_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigError) as err:
            validate_config(data)
        assert err.value.fields == ["J", "times"]
        assert main(["run", str(write_config(tmp_path, data))]) == 2
        assert "J, times" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_circuit_width_cap_applies_only_to_circuit_runs(self):
        exact = {"kind": "nonchiral_localization", "L": 30, "times": [0.1],
                 "W_values": [0.0, 1.0]}
        assert validate_config(dict(exact, method="single_particle")).L == 30
        assert validate_config({"kind": "disorder_spectra", "L": 30, "W": 1.0,
                                "realizations": 1}).L == 30
        with pytest.raises(ConfigError) as err:
            validate_config(dict(exact, method="statevector"))
        assert err.value.fields == ["L"]

    def test_load_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, chiral_config(tmp_path)))
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.W == 2.0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_key_table() -> dict:
    """Row label -> (required keys, optional keys) of the README's key table."""
    text = README.read_text(encoding="utf-8")
    body = re.search(r"^\| kind +\| required keys .*\n\|[- |]+\n((?:\|.*\n)+)", text, re.M)
    table = {}
    for line in body.group(1).splitlines():
        label, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        table[label.strip("`")] = tuple(set(re.findall(r"`(\w+)`", cell)) for cell in cells)
    return table


class TestReadmeKeyTable:
    def test_table_lists_each_kinds_keys(self):
        # the docs cannot go stale when a key is added to or dropped from a kind
        table = readme_key_table()
        assert table.pop("every kind") == ({"kind"}, _COMMON_KEYS - {"kind"})
        assert table == {kind: (required, keys - required)
                         for kind, (keys, required) in _KIND_KEYS.items()}


#: boundary values of the config fuzz: signed zero, the smallest subnormal,
#: the real range's ends and the next float past it, floats near and past the
#: float range, and values of the wrong type
FUZZ_VALUES = [0, -0.0, 5e-324, 1e90, -1e90, math.nextafter(1e90, math.inf), 1e300, 1.7e308,
               10**400, True, "1", None, [], math.nan]
FUZZ_NOISE = {"p_cnot": 0.05, "p_1q": 0.01, "p_readout": 0.02}
#: one small valid config per run path; the fuzz mutates each numeric field
FUZZ_BASES = {
    "walk": {"kind": "chiral_propagation", "L": 4, "steps": [1, 2], "W": 1.0, "start_site": 1},
    "noisy_robustness": {"kind": "chiral_robustness", "L": 4, "steps": [1, 2],
                         "W_values": [0.0, 1.0], "noise": FUZZ_NOISE, "shots": 30},
    "trotter": {"kind": "nonchiral_localization", "L": 4, "times": [0.1, 0.5],
                "W_values": [0.0, 2.0], "J": 1.0, "trotter_n": 2, "method": "statevector"},
    "noisy_trotter": {"kind": "nonchiral_localization", "L": 4, "times": [0.5],
                      "W_values": [0.0, 2.0], "noise": FUZZ_NOISE, "shots": 20},
    "exact": {"kind": "nonchiral_localization", "L": 4, "times": [0.1, 0.5],
              "W_values": [0.0, 2.0], "J": 1.0, "method": "single_particle"},
    "spectra": {"kind": "disorder_spectra", "L": 4, "W": 1.0, "J": 1.0, "realizations": 3},
    "scaling": {"kind": "amplitude_scaling", "axis": "steps_at_fixed_L", "L": 4,
                "values": [1, 2, 3], "sweep_seeds": 1, "noise": FUZZ_NOISE, "shots": 30},
}
_FUZZ_FIELDS = ("L", "steps", "times", "W", "W_values", "J", "trotter_n",
                "realizations", "values", "sweep_seeds", "shots", "start_site", "seed")


def _csv_cells_finite(outdir) -> bool:
    for path in outdir.glob("*.csv"):
        with open(path) as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    try:
                        if not math.isfinite(float(cell)):
                            return False
                    except ValueError:  # a label such as a model name
                        pass
    return True


class TestBoundaryFuzz:
    @pytest.mark.parametrize("base", sorted(FUZZ_BASES))
    def test_one_field_at_a_boundary_never_crashes(self, tmp_path, capsys, base):
        # every mutation fails validation (2) or runs to completion (0 or 1)
        # with finite CSVs; a list field gets the value at a seeded position
        data = FUZZ_BASES[base]
        validate_config(data)
        rng = np.random.default_rng(7)
        fields = [k for k in _FUZZ_FIELDS if k in data or k == "seed"]
        fields += [f"noise.{k}" for k in data.get("noise", {})]
        for case, (key, value) in enumerate((k, v) for k in fields for v in FUZZ_VALUES):
            mutated = json.loads(json.dumps(data))
            target, name = (mutated["noise"], key[6:]) if key.startswith("noise.") else (mutated, key)
            if isinstance(target.get(name), list):
                target[name][rng.integers(len(target[name]))] = value
            else:
                target[name] = value
            outdir = tmp_path / str(case)
            code = main(["run", str(write_config(tmp_path, dict(mutated, output_dir=str(outdir))))])
            assert code in (0, 1, 2), (key, value, capsys.readouterr().err)
            assert code == 2 or _csv_cells_finite(outdir), (key, value)
            capsys.readouterr()


ZERO_NOISE = {"p_cnot": 1.0, "p_1q": 0.0, "p_readout": 0.0}
#: at seed 0 every shot of some point reads the empty register, one config per kind
ZERO_PARTICLE_CASES = {
    "walk": {"kind": "chiral_propagation", "steps": [1]},
    "robustness": {"kind": "chiral_robustness", "steps": [1], "W_values": [0.0, 1.0]},
    "scaling": {"kind": "amplitude_scaling", "axis": "steps_at_fixed_L", "values": [1, 2, 3]},
    "trotter": {"kind": "nonchiral_localization", "times": [1.0], "W_values": [0.0, 1.0],
                "noise": dict(ZERO_NOISE, p_1q=1.0)},
}


class TestZeroParticlePoints:
    @pytest.mark.parametrize("case", sorted(ZERO_PARTICLE_CASES))
    def test_point_without_a_particle_completes(self, tmp_path, capsys, case):
        # a point no shot saw the particle at reads 0, it does not crash the run
        data = {"L": 2, "noise": ZERO_NOISE, "shots": 1, "seed": 0,
                "output_dir": str(tmp_path / "out"), **ZERO_PARTICLE_CASES[case]}
        code = main(["run", str(write_config(tmp_path, data))])
        assert code in (0, 1), capsys.readouterr().err
        assert _csv_cells_finite(tmp_path / "out")


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
        # the checks score each step's peak on the site the walk moved to
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


    def test_point_counts_independent_of_the_other_points(self, tmp_path):
        # each point's stream is keyed by the point, not by its place in the sweep
        rows = []
        for steps in ([2, 5], [5]):
            outdir = run_experiment(validate_config(chiral_config(
                tmp_path, steps=steps, noise={"p_cnot": 0.05, "p_readout": 0.02}, shots=400,
                output_dir=str(tmp_path / str(steps)))))
            rows.append([
                [r for r in csv.reader((outdir / name).read_text().splitlines()) if r[0] == "5"]
                for name in ("site_density_W2.csv", "mitigation_W2.csv")
            ])
        assert rows[0] == rows[1]
        assert len(rows[0][0]) == 8 and len(rows[0][1]) == 1


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
                "L": 8,
                "times": [1.0, 2.0],
                "W_values": [0.0, 6.0],
                "profile": "box",
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

    @pytest.mark.parametrize(
        "method, L", [("single_particle", 20), ("statevector", 8)], ids=["exact", "trotter"]
    )
    def test_checks_and_qasm_independent_of_time_order(self, tmp_path, method, L):
        # the ipr ratio and the QASM file are taken at the latest time,
        # wherever it is listed
        outputs = []
        for times in ([0.1, 2.0], [2.0, 0.1]):
            outdir = run_experiment(validate_config({
                "kind": "nonchiral_localization", "L": L, "times": times,
                "W_values": [0.0, 6.0], "profile": "box", "start_site": 3, "method": method,
                "trotter_n": 8, "output_dir": str(tmp_path / str(times)),
            }))
            names = ["checks.json"] + sorted(p.name for p in outdir.glob("*.qasm"))
            outputs.append({name: (outdir / name).read_bytes() for name in names})
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["checks.json"])["all_passed"]
        assert len(outputs[0]) == (1 if method == "single_particle" else 3)

    @pytest.mark.parametrize("L, method", [(8, "statevector"), (14, "single_particle")])
    def test_manifest_records_the_resolved_method(self, tmp_path, L, method):
        # without `method`, a noiseless chain past L = 12 takes the exact propagator
        data = {"kind": "nonchiral_localization", "L": L, "times": [0.5], "W_values": [0.0, 6.0],
                "profile": "box", "start_site": 3, "output_dir": "loc"}
        manifests = []
        for config in (data, dict(data, method=method)):
            outdir = run_experiment(validate_config(config), tmp_path / str(len(config)))
            manifests.append(json.loads((outdir / "manifest.json").read_text()))
        assert manifests[0]["config"]["method"] == method
        assert manifests[0]["content_hash"] == manifests[1]["content_hash"]

    def test_statevector_method_writes_qasm(self, tmp_path):
        cfg = validate_config(
            {
                "kind": "nonchiral_localization",
                "L": 8,
                "times": [0.3, 0.9],
                "W_values": [0.0, 6.0],
                "profile": "box",
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

    def test_runs_without_schur_vectors(self, tmp_path, monkeypatch):
        # the run reads only eigenphases, so it must not pay for a Schur basis
        def no_schur(*args, **kwargs):
            raise AssertionError("disorder_spectra formed Schur vectors")

        monkeypatch.setattr("fcqw.floquet.scipy.linalg.schur", no_schur)
        cfg = validate_config(
            {
                "kind": "disorder_spectra",
                "L": 8,
                "W": 4.0,
                "realizations": 3,
                "seed": 1,
                "output_dir": str(tmp_path / "spec"),
            }
        )
        outdir = run_experiment(cfg)
        assert json.loads((outdir / "checks.json").read_text())["all_passed"]

    @pytest.mark.parametrize("W", [1e6, 1e15])
    def test_analytic_shift_holds_at_strong_disorder(self, tmp_path, W):
        # the raw onsite phases reach about W L; summed unwrapped, they lose
        # the digits that chiral_shift_matches_analytic's 1e-9 bar tests,
        # though the numerical ladder is right
        data = {"kind": "disorder_spectra", "L": 40, "W": W, "realizations": 20,
                "output_dir": str(tmp_path / "spec")}
        assert main(["run", str(write_config(tmp_path, data))]) == 0

    def test_result_dir_does_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        data = {"kind": "disorder_spectra", "L": 12, "W": 4.0, "realizations": 9,
                "seed": 3, "output_dir": "spec"}
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(floquet, "_cpu_count", lambda: cpus)
            runs.append(file_bytes(run_experiment(validate_config(data), tmp_path / str(cpus))))
        assert runs[0] == runs[1]


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

    @pytest.mark.parametrize("axis", ["steps_at_fixed_L", "size_with_t_equals_L"])
    def test_rows_sorted_by_x(self, tmp_path, axis):
        cfg = validate_config({"kind": "amplitude_scaling", "L": 4, "axis": axis,
                               "values": [5, 2, 3], "shots": 20,
                               "noise": {"p_cnot": 0.0, "p_1q": 0.0, "p_readout": 0.0},
                               "output_dir": str(tmp_path / "scaling")})
        with open(run_experiment(cfg) / "decay.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["x"]), float(r["mean_peak_amplitude"])) for r in rows] == [
            (2, 1.0), (3, 1.0), (5, 1.0)]

    def test_noise_required(self, tmp_path):
        with pytest.raises(ConfigError) as err:  # at validation, before any run
            validate_config(
                {
                    "kind": "amplitude_scaling",
                    "axis": "steps_at_fixed_L",
                    "values": [1, 2, 3],
                    "seed": 0,
                    "output_dir": str(tmp_path / "x"),
                }
            )
        assert err.value.fields == ["noise"]


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

    @pytest.mark.parametrize(
        "name, document",
        [("manifest.json", []), ("checks.json", {"checks": ["passed"]}), ("checks.json", [])],
        ids=["manifest_list", "check_string", "report_list"],
    )
    def test_wrong_shaped_json_is_unreadable(self, tmp_path, capsys, name, document):
        outdir = run_experiment(validate_config(chiral_config(tmp_path)))
        (outdir / name).write_text(json.dumps(document))
        ok, messages = check_result_dir(outdir)
        assert not ok
        assert messages[0].startswith("unreadable result dir")
        assert main(["check", str(outdir)]) == 1


def _crash(*args, **kwargs):
    raise ValueError("circuit construction failed")


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestShippedConfigs:
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[c.stem for c in SHIPPED_CONFIGS])
    def test_runs_checks_and_emits_its_qasm(self, tmp_path, capsys, config):
        run_dir, emit_dir = tmp_path / "run", tmp_path / "emit"
        assert main(["run", str(config), "--output-dir", str(run_dir)]) == 0
        assert main(["check", str(run_dir)]) == 0
        assert main(["emit-qasm", str(config), "--output-dir", str(emit_dir)]) == 0
        assert file_bytes(emit_dir) == file_bytes(run_dir, "circuit_*.qasm")

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[c.stem for c in SHIPPED_CONFIGS])
    def test_manifest_config_validates_to_itself(self, tmp_path, config):
        manifest = json.loads((run_experiment(load_config(config), tmp_path)
                               / "manifest.json").read_text())
        resolved = resolved_config_dict(validate_config(manifest["config"]))
        assert resolved == manifest["config"]
        assert content_hash(resolved) == manifest["content_hash"]


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
        data = {"kind": "amplitude_scaling", "axis": "steps_at_fixed_L", "values": [1, 2, 3],
                "output_dir": str(tmp_path / "x")}
        assert main(["run", str(write_config(tmp_path, data))]) == 2
        assert "noise" in capsys.readouterr().err

    def test_crash_during_run_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("fcqw.harness.build_fcqw_walk", _crash)
        data = {"kind": "chiral_propagation", "L": 4, "steps": [1],
                "output_dir": str(tmp_path / "x" / "y")}
        assert main(["run", str(write_config(tmp_path, data))]) == 3
        assert capsys.readouterr().err.startswith("error: run crashed: ValueError")
        assert not (tmp_path / "x").exists()  # every directory the run created is gone

    def test_crash_leaves_existing_output_dir_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("fcqw.harness.build_fcqw_walk", _crash)
        outdir = tmp_path / "x"
        outdir.mkdir()
        (outdir / "keep.txt").write_text("kept")
        data = {"kind": "chiral_propagation", "L": 4, "steps": [1], "output_dir": str(outdir)}
        assert main(["run", str(write_config(tmp_path, data))]) == 3
        assert (outdir / "keep.txt").read_text() == "kept"

    def test_rerun_clears_the_earlier_runs_files(self, tmp_path, monkeypatch, capsys):
        outdir = tmp_path / "out"
        outdir.mkdir()
        (outdir / "keep.txt").write_text("kept")
        first = {"kind": "chiral_propagation", "L": 8, "steps": [2, 5], "W": 0.0,
                 "output_dir": str(outdir)}
        second = {**first, "steps": [3], "W": 1.0}
        assert main(["run", str(write_config(tmp_path, first))]) == 0
        assert main(["run", str(write_config(tmp_path, second))]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", str(write_config(tmp_path, {**second, "output_dir": str(fresh)}))]) == 0
        expected = sorted([p.name for p in fresh.iterdir()] + ["keep.txt"])
        assert sorted(p.name for p in outdir.iterdir()) == expected
        # a crash in that dir leaves no checks.json for ``fcqw check`` to pass
        monkeypatch.setattr("fcqw.harness.build_fcqw_walk", _crash)
        assert main(["run", str(write_config(tmp_path, first))]) == 3
        assert main(["check", str(outdir)]) == 1
        assert (outdir / "keep.txt").read_text() == "kept"

    @pytest.mark.parametrize("command", ["run", "emit-qasm"])
    def test_unwritable_output_dir_is_a_config_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file")
        path = write_config(tmp_path, chiral_config(tmp_path, output_dir=str(blocker)))
        assert main([command, str(path)]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert blocker.read_text() == "a file"

    def test_crash_during_emit_qasm_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("fcqw.harness.build_fcqw_walk", _crash)
        data = {"kind": "chiral_propagation", "L": 4, "steps": [1],
                "output_dir": str(tmp_path / "x")}
        assert main(["emit-qasm", str(write_config(tmp_path, data))]) == 3
        assert capsys.readouterr().err.startswith("error: run crashed: ValueError")
        assert not (tmp_path / "x").exists()

    def test_emit_qasm_refuses_a_run_result_dir(self, tmp_path, capsys):
        # the manifest would not describe the added QASM files
        outdir = tmp_path / "out"
        first = {"kind": "chiral_propagation", "L": 8, "steps": [2, 5], "W": 0.0,
                 "output_dir": str(outdir)}
        assert main(["run", str(write_config(tmp_path, first))]) == 0
        capsys.readouterr()
        before = file_bytes(outdir)
        second = write_config(tmp_path, {**first, "steps": [3], "W": 1.0})
        assert main(["emit-qasm", str(second)]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert file_bytes(outdir) == before
        assert main(["check", str(outdir)]) == 0

    def test_bad_config_emit_qasm_exit_code(self, tmp_path, capsys):
        # config errors come from validation, before any emission
        path = write_config(tmp_path, chiral_config(tmp_path, steps="many"))
        assert main(["emit-qasm", str(path)]) == 2
        assert "steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


GOLDEN_NOISE = {"p_cnot": 0.02, "p_1q": 0.001, "p_readout": 0.01}

#: one small config per measurement path of the harness
GOLDEN_CASES = {
    "chiral_noiseless": {
        "kind": "chiral_propagation", "L": 8, "steps": [1, 4, 8], "W": 2.0, "profile": "box",
        "start_site": 1,
    },
    "chiral_noisy": {
        "kind": "chiral_propagation", "L": 6, "steps": [2, 5], "W": 1.5, "profile": "uniform",
        "noise": GOLDEN_NOISE, "shots": 300, "seed": 3,
    },
    "chiral_robustness": {
        "kind": "chiral_robustness", "L": 5, "steps": [2, 3], "W_values": [0.0, 2.5],
        "profile": "uniform", "noise": GOLDEN_NOISE, "shots": 300, "seed": 5,
    },
    "nonchiral_statevector": {
        "kind": "nonchiral_localization", "L": 8, "times": [0.5, 1.0], "W_values": [0.0, 6.0],
        "profile": "box", "start_site": 2, "method": "statevector", "trotter_n": 4,
    },
    "nonchiral_statevector_noisy": {
        "kind": "nonchiral_localization", "L": 4, "times": [0.3, 0.6], "W_values": [0.0, 2.0],
        "profile": "uniform", "start_site": 1, "method": "statevector", "noise": GOLDEN_NOISE,
        "shots": 40, "seed": 7,
    },
    "nonchiral_single_particle": {
        "kind": "nonchiral_localization", "L": 8, "times": [0.5, 2.0], "W_values": [0.0, 6.0],
        "profile": "box", "start_site": 3, "method": "single_particle",
    },
    "disorder_spectra": {
        "kind": "disorder_spectra", "L": 5, "W": 4.0, "realizations": 3, "seed": 2,
    },
    "disorder_spectra_shipped": {  # the size of configs/disorder_spectra.json
        "kind": "disorder_spectra", "L": 20, "W": 4.0, "realizations": 100, "seed": 2024,
    },
    "amplitude_scaling": {
        "kind": "amplitude_scaling", "L": 5, "axis": "steps_at_fixed_L", "values": [1, 2, 3],
        "noise": GOLDEN_NOISE, "shots": 200, "sweep_seeds": 2, "seed": 4,
    },
}

#: first 16 hex digits of the SHA-256 of every file ``run_experiment`` writes
#: for each case, recorded before the harness was restructured; the shipped
#: spectra's checks.json since the analytic shift sums the wrapped onsite
#: phases (detail 9.770e-15 -> 1.776e-15).  The data files of
#: chiral_robustness and nonchiral_statevector_noisy were recorded on their
#: uniform-profile configs by the code that still took left walks and custom
#: profiles; the walk and chain cases' manifest.json since their configs
#: lost those two keys.  The data files of the noisy cases (and the
#: checks.json of chiral_robustness and amplitude_scaling, whose details
#: print sampled values) since faults are drawn as geometric gaps per gate
#: class instead of one flag word per gate.  The noisy cases' manifest.json
#: since the manifest's noise block no longer copies the config's seed
GOLDEN_DIGESTS = {
    "chiral_noiseless": {
        "checks.json": "397b189836e33fa3",
        "circuit_W2_t1.qasm": "85665059758fbbef",
        "circuit_W2_t4.qasm": "eb4f21b3fdf1e3f8",
        "circuit_W2_t8.qasm": "14b8bf301545dde3",
        "manifest.json": "1f420d181a7e0b30",
        "site_density_W2.csv": "e8646e115e94387e",
        "summary_W2.csv": "ee55416c5cdca37f",
    },
    "chiral_noisy": {
        "checks.json": "d9e2fdb99361919d",
        "circuit_W1.5_t2.qasm": "97e49c90b4094af2",
        "circuit_W1.5_t5.qasm": "8a015fd6fa1d0d50",
        "manifest.json": "161a6fe3452374d8",
        "mitigation_W1.5.csv": "8155647fd2cbd764",
        "site_density_W1.5.csv": "e536c12cbf905cbe",
        "summary_W1.5.csv": "ecd2e7ad8832e637",
    },
    "chiral_robustness": {
        "checks.json": "c33522b52980aabb",
        "circuit_W0_t2.qasm": "7d0d20382550c0e8",
        "circuit_W0_t3.qasm": "66f239d46c9b2bb1",
        "circuit_W2.5_t2.qasm": "6a3f3bbeba432395",
        "circuit_W2.5_t3.qasm": "66f908c8a0ff2bd8",
        "manifest.json": "ed905050c495c734",
        "mitigation_W0.csv": "9c806d7d2ea073af",
        "mitigation_W2.5.csv": "c51350636bdac761",
        "site_density_W0.csv": "bc4558bfffcb9d33",
        "site_density_W2.5.csv": "817555067c7f87c5",
        "summary_W0.csv": "49b1e16a72b0c7fb",
        "summary_W2.5.csv": "147f3b73a58652d3",
    },
    "nonchiral_statevector": {
        "checks.json": "757600c6219bd936",
        "circuit_W0.qasm": "36271aaa2e6d154e",
        "circuit_W6.qasm": "40ad24ada72d7d97",
        "manifest.json": "c316855bdb952767",
        "site_density_W0.csv": "3d36574147629cb2",
        "site_density_W6.csv": "2262c0b1259c9210",
        "summary_W0.csv": "9945b537c3810117",
        "summary_W6.csv": "b6cc4e21da718ddf",
    },
    "nonchiral_statevector_noisy": {
        "checks.json": "667587569208c7bb",
        "circuit_W0.qasm": "3212ea8a469c3d69",
        "circuit_W2.qasm": "a9363c067a503d47",
        "manifest.json": "72743711f4434f32",
        "site_density_W0.csv": "82e2619d7c165716",
        "site_density_W2.csv": "cc7f687f5b853f3c",
        "summary_W0.csv": "b646d0526915582e",
        "summary_W2.csv": "69c3066ec5c59f86",
    },
    "nonchiral_single_particle": {
        "checks.json": "2ccba98b6b0fac43",
        "manifest.json": "535e43e43436550e",
        "site_density_W0.csv": "8b965a66f6a4b516",
        "site_density_W6.csv": "93fc0bfd0536a4c9",
        "summary_W0.csv": "027b90f559503cf8",
        "summary_W6.csv": "baaaa2ba36d06874",
    },
    "disorder_spectra": {
        "checks.json": "18484ed5a5331a6a",
        "level_stats.csv": "552f2edac1c9f7d3",
        "manifest.json": "c64ca5be8447d86d",
        "spectra.csv": "e1045ea9b8ed225c",
    },
    "disorder_spectra_shipped": {
        "checks.json": "453eb0d01764d0e8",
        "level_stats.csv": "1f8526069cdb700c",
        "manifest.json": "590529cc0ac6f29d",
        "spectra.csv": "7f4e0c7b0a6775c1",
    },
    "amplitude_scaling": {
        "checks.json": "69b2f813703838f7",
        "decay.csv": "b9fd4aeebdb3e202",
        "manifest.json": "68ab466a1b043b0c",
    },
}


def golden_config(case):
    # a fixed output_dir keeps manifest.json independent of tmp_path
    return validate_config(dict(GOLDEN_CASES[case], output_dir="golden"))


def file_bytes(outdir, pattern="*"):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob(pattern))}


class TestGoldenBytes:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_run_output_is_byte_identical(self, tmp_path, case):
        outdir = run_experiment(golden_config(case), tmp_path / case)
        digests = {
            name: hashlib.sha256(body).hexdigest()[:16]
            for name, body in file_bytes(outdir).items()
        }
        assert digests == GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_emit_qasm_writes_the_qasm_files_of_run(self, tmp_path, case):
        cfg = golden_config(case)
        run_dir = run_experiment(cfg, tmp_path / "run")
        paths = emit_experiment_qasm(cfg, tmp_path / "emit")
        assert sorted(p.name for p in paths) == sorted(file_bytes(run_dir, "*.qasm"))
        assert file_bytes(tmp_path / "emit") == file_bytes(run_dir, "*.qasm")
