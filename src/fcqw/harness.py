"""Config-driven experiment runner.

Each experiment is described by a single JSON document (unknown keys
rejected) and produces a result directory containing a manifest with a
content hash of the resolved config, per-step site-distribution CSVs,
a summary CSV, emitted OpenQASM files, and a machine-readable pass/fail
report of the built-in checks for that experiment kind.

Sites in all CSV output are labelled 1..L; the API itself is 0-based.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
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
    onsite_phases,
    predicted_chiral_eigenphases,
    quasi_energy_phases,
    reduce_to_single_particle,
    sample_disorder_profiles,
    winding_number,
    write_csv,
    xy_step_operator,
    xy_step_phases,
)
from .noise import SWEEP_AXES, NoiseSpec, amplitude_decay_sweep, run_noisy
from .observables import (
    SiteDistribution,
    ipr,
    peak_amplitude,
    post_process,
    restricted_site_density_counts,
    site_density_counts,
)
from .qasm import emit_qasm3
from .statevec import MAX_QUBITS, derived_seed

#: largest |W| or time: :func:`_point_key` keys one at 1e-3 resolution as an integer
_POINT_LIMIT = 1e300


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
    profile: str = "uniform"  # uniform | box | custom
    custom_u: list[float] = field(default_factory=list)
    start_site: int = 0
    chirality: str = "right"
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
    "chiral_propagation": (
        {"steps", "W", "profile", "custom_u", "start_site", "chirality"}, {"L", "steps"}),
    "chiral_robustness": (
        {"steps", "W_values", "profile", "custom_u", "start_site", "chirality"},
        {"L", "steps", "W_values"}),
    "nonchiral_localization": (
        {"times", "W_values", "profile", "custom_u", "start_site", "J", "trotter_n", "method"},
        {"L", "times", "W_values"}),
    "disorder_spectra": ({"W", "realizations", "J"}, {"L", "W", "realizations"}),
    "amplitude_scaling": ({"axis", "values", "start_site", "sweep_seeds"}, {"axis", "values"}),
}
KINDS = tuple(_KIND_KEYS)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value, limit: float = math.inf) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and abs(value) <= limit
    except OverflowError:  # an integer past the float range
        return False


def _int_in(value, lo: int, hi: float = math.inf) -> bool:
    return _is_integer(value) and lo <= value <= hi


def _nonempty_list(value, ok) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(ok(v) for v in value)


def _noise_spec(noise_data, seed) -> NoiseSpec:
    if not isinstance(noise_data, dict):
        raise ConfigError("noise must be an object", ["noise"])
    bad = sorted(set(noise_data) - {"p_cnot", "p_1q", "p_readout", "seed"})
    if bad:
        raise ConfigError("unknown noise keys", bad)
    noise_data = dict(noise_data)
    noise_data.setdefault("seed", seed)
    bad = [k for k in ("p_cnot", "p_1q", "p_readout")
           if k in noise_data and not (_is_finite_real(noise_data[k]) and 0 <= noise_data[k] <= 1)]
    if not _int_in(noise_data["seed"], 0):
        bad.append("seed")
    if bad:
        raise ConfigError("invalid noise values", bad)
    return NoiseSpec(**noise_data)


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
    if not _int_in(data.get("seed", 0), 0):  # SeedSequence entropy
        raise ConfigError("invalid field values", ["seed"])

    kwargs = dict(data)
    if kwargs.get("noise") is not None:
        kwargs["noise"] = _noise_spec(kwargs["noise"], data.get("seed", 0))
    cfg = ExperimentConfig(**kwargs)

    problems = []
    if not _int_in(cfg.L, 2):  # a walk, a chain and level spacings need two sites
        problems.append("L")
    elif cfg.L > MAX_QUBITS and _method(cfg) == "statevector" and cfg.axis == "steps_at_fixed_L":
        problems.append("L")  # an L-qubit circuit; the size axis sets its widths by `values`
    if not _int_in(cfg.realizations, 1):
        problems.append("realizations")
    for name, limit in (("W", _POINT_LIMIT), ("J", math.inf)):
        if not _is_finite_real(getattr(cfg, name), limit):
            problems.append(name)
    if cfg.profile not in ("uniform", "box", "custom"):
        problems.append("profile")
    elif cfg.profile == "box" and _is_integer(cfg.L) and cfg.L <= max(BOX_SITES):
        problems.append("profile")
    if cfg.profile == "custom" and not (
        _nonempty_list(cfg.custom_u, _is_finite_real) and len(cfg.custom_u) == cfg.L
    ):
        problems.append("custom_u")
    if cfg.kind == "amplitude_scaling":
        if cfg.noise is None:
            problems.append("noise")  # the sweep measures decay under noise
        if cfg.axis not in SWEEP_AXES:
            problems.append("axis")
        lo, hi = (2, MAX_QUBITS) if cfg.axis == "size_with_t_equals_L" else (0, math.inf)
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
    if cfg.chirality not in ("right", "left"):
        problems.append("chirality")
    if not _int_in(cfg.sweep_seeds, 1):
        problems.append("sweep_seeds")
    if not _int_in(cfg.trotter_n, 1):
        problems.append("trotter_n")
    if cfg.method not in ("auto", "statevector", "single_particle"):
        problems.append("method")
    elif cfg.method == "single_particle" and cfg.noise is not None:
        problems.append("method")  # the exact propagator takes no noise
    # a bound kept from seeding each shot with one spawn-key word; rows of
    # one PCG64 stream need none, but a run keeps arrays sized by it
    if not _int_in(cfg.shots, 1, 1 << 32):
        problems.append("shots")
    if not isinstance(cfg.output_dir, str):
        problems.append("output_dir")
    points = (
        ("steps", lambda t: _int_in(t, 0)),
        ("times", lambda t: _is_finite_real(t, _POINT_LIMIT) and t >= 0),
        ("W_values", lambda w: _is_finite_real(w, _POINT_LIMIT)),
    )
    for name, ok in points:
        if name not in keys:
            continue
        values = getattr(cfg, name)
        if not _nonempty_list(values, ok):
            problems.append(name)
        elif len({_point_key(v) for v in values}) < len(values):
            problems.append(name)  # two points would share a noise stream
        elif name == "W_values" and len({_wtag(v) for v in values}) < len(values):
            problems.append(name)  # two W values would write the same files
    if problems:
        raise ConfigError("invalid field values", problems)
    overflowing = _overflowing(cfg)
    if overflowing:
        raise ConfigError("an rz angle, onsite phase, hopping term or E t overflows", overflowing)
    return cfg


def _overflowing(cfg: ExperimentConfig) -> list[str]:
    """The fields of a valid config whose values make an rz angle, an onsite
    phase, an XY hopping term or an exact XY point's ``E t`` non-finite.
    The kinds without W values have no profile to check: disorder draws
    |u| <= 1."""
    if not math.isfinite(2.0 * cfg.J):
        return ["J"]
    W_values, xs = _sweep(cfg)
    custom = ["custom_u"] if cfg.profile == "custom" else []
    exact = _method(cfg) == "single_particle"  # the exact XY H's diagonal: onsite phases
    trotter = cfg.kind == "nonchiral_localization" and not exact
    dts = np.array(xs, dtype=float) / cfg.trotter_n  # build_xy_trotter's t / n
    top = 0.0  # the largest |onsite phase| or |rz angle|
    with np.errstate(over="ignore", invalid="ignore"):
        for W in W_values:
            u = _profile_for(cfg, W).u
            terms = onsite_phases(u, W) if exact else 2.0 * W * u  # phases or rz angles
            if not np.isfinite(terms).all():
                return custom  # |W| <= 1e300 and |u| <= 1 for the other profiles
            if trotter and not np.isfinite(np.outer(terms, dts)).all():
                return ["W_values", *custom, "times"]
            top = max(top, float(np.abs(terms).max()))
        if trotter and not np.isfinite(-2.0 * cfg.J * dts).all():
            return ["J", "times"]
    # an exact point's energies: |E| <= 4|J| + top (hops of -2J to two
    # neighbours, Gershgorin), and e^{-i E t} needs a finite E t; a disorder
    # step is t = 1 with |onsite phase| <= L |W|, as |u| <= 1
    if cfg.kind == "disorder_spectra" and not math.isfinite(4.0 * abs(cfg.J) + cfg.L * abs(cfg.W)):
        return ["J"]
    if exact and cfg.kind == "nonchiral_localization" and not math.isfinite(
            (4.0 * abs(cfg.J) + top) * max(xs)):
        return ["J", "times"]
    return []


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return validate_config(json.load(fh))


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    keys = _COMMON_KEYS | _KIND_KEYS[cfg.kind][0]
    return {k: v for k, v in asdict(cfg).items() if k in keys}


def content_hash(config: dict) -> str:
    """Git-blob-style SHA-1 of the canonical resolved-config JSON."""
    body = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest()


def _profile_for(cfg: ExperimentConfig, W: float) -> PotentialProfile:
    if cfg.profile == "box":
        return PotentialProfile.box(cfg.L, W)
    if cfg.profile == "custom":
        return PotentialProfile(np.array(cfg.custom_u), W)
    return PotentialProfile.uniform(cfg.L, W)


def _point_key(value: float) -> int:
    """A W value or time as it enters a noise-stream key: 1e-3 resolution."""
    return int(round(value * 1000))


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


def _method(cfg: ExperimentConfig) -> str:
    """The resolved ``method``: ``statevector`` for a walk; ``auto`` takes
    the exact L x L propagator for a noiseless XY chain past L = 12."""
    if cfg.kind == "disorder_spectra":
        return "single_particle"  # L x L operators, no circuit
    if cfg.method != "auto":  # only nonchiral_localization takes the key
        return cfg.method
    exact = cfg.kind == "nonchiral_localization" and cfg.noise is None and cfg.L > 12
    return "single_particle" if exact else "statevector"


def _sweep(cfg: ExperimentConfig) -> tuple[list[float], list]:
    """The W values and the steps or times measured at each; the kinds
    without circuit points (spectra, amplitude scaling) have no W values."""
    if cfg.kind == "nonchiral_localization":
        return cfg.W_values, cfg.times
    return ([cfg.W] if cfg.kind == "chiral_propagation" else cfg.W_values), cfg.steps


def _point_circuit(cfg: ExperimentConfig, profile: PotentialProfile, x) -> Circuit | None:
    """The circuit of a measured point: the x-step walk, or the trotterized
    XY chain evolved to time x; None where the exact propagator replaces it."""
    if _method(cfg) == "single_particle":
        return None
    if cfg.kind == "nonchiral_localization":
        return build_xy_trotter(cfg.L, profile, TrotterConfig(cfg.J, float(x), cfg.trotter_n))
    return build_fcqw_walk(cfg.L, profile, x, cfg.chirality)


def _qasm_name(cfg: ExperimentConfig, W: float, x) -> str | None:
    """QASM file name of the point (W, x), or None if it has no file: every
    walk point has one, a Trotter sweep one for its latest time."""
    if cfg.kind != "nonchiral_localization":
        return f"circuit_{_wtag(W)}_t{x}.qasm"
    latest = _method(cfg) == "statevector" and x == max(cfg.times)
    return f"circuit_{_wtag(W)}.qasm" if latest else None


def _write_qasm(outdir: Path, name: str, circuit: Circuit) -> Path:
    path = outdir / name
    path.write_text(emit_qasm3(circuit), encoding="utf-8")
    return path


def _measure(cfg: ExperimentConfig, profile: PotentialProfile, circuit: Circuit | None, W, x):
    """Raw site density of the one-hot start at the point (W, x), and its
    shot counts (None when noiseless).  A noiseless density is a column of
    the sector matrix, reduced from ``circuit`` or, without one, the exact
    XY propagator; a noisy point draws ``cfg.shots`` shots from a stream
    keyed by the point (a walk step keys as itself)."""
    if cfg.noise is None:
        if circuit is None:
            op = xy_step_operator(cfg.L, profile, cfg.J, float(x))
        else:
            op = reduce_to_single_particle(circuit)
        return SiteDistribution(np.abs(op.matrix[:, cfg.start_site]) ** 2), None
    step_key = _point_key(x) if cfg.kind == "nonchiral_localization" else x
    seed = derived_seed(cfg.noise.seed, step_key, _point_key(W))
    result = run_noisy(circuit, 1 << cfg.start_site, replace(cfg.noise, seed=seed), cfg.shots)
    return site_density_counts(result, cfg.L), result


def _beyond_barrier(profile: PotentialProfile) -> list[int]:
    """Sites outside a box barrier: neither a wall nor in the well, which
    lies strictly between the first two wall segments.  No walls, no barrier."""
    walls = [i for i, v in enumerate(profile.u) if v != 0.0]
    if not walls:
        return []
    gaps = [(a, b) for a, b in zip(walls, walls[1:]) if b > a + 1]
    well = range(gaps[0][0] + 1, gaps[0][1]) if gaps else range(0)
    return [i for i in range(profile.num_sites) if i not in walls and i not in well]


def _run_points(cfg: ExperimentConfig, outdir: Path) -> list[dict]:
    """The walk and XY-chain kinds: for each W and each step or time,
    measure the point, post-process it, and write its site rows, its
    summary row and its QASM file if it has one."""
    walk = cfg.kind != "nonchiral_localization"
    W_values, points = _sweep(cfg)
    summaries, mitigations = [], []
    for W in W_values:
        profile = _profile_for(cfg, W)
        beyond = _beyond_barrier(profile)
        site_rows, summary_rows, mitigation_rows = [], [], []
        for x in points:
            circuit = _point_circuit(cfg, profile, x)
            raw, result = _measure(cfg, profile, circuit, W, x)
            density = post_process(raw)
            shift = (x if cfg.chirality == "right" else -x) if walk else 0
            peak_site = (cfg.start_site + shift) % cfg.L
            site_rows += [(x, site + 1, float(p)) for site, p in enumerate(density.p)]
            row = (x, ipr(density), peak_amplitude(density, peak_site))
            summary_rows.append(row if walk else (*row, float(np.sum(density.p[beyond]))))
            if walk and result is not None:
                restricted = restricted_site_density_counts(result, cfg.L)
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
    if cfg.kind == "chiral_robustness" and cfg.noise is not None and len(W_values) >= 2:
        last = steps.index(max(steps))
        _, ipr0, peak0 = summaries[0][last]
        _, ipr1, peak1 = summaries[-1][last]
        rel_ipr = abs(ipr1 - ipr0) / ipr0
        rel_peak = abs(peak1 - peak0) / peak0
        checks.append(
            _check(
                "noisy_robustness_under_potential",
                rel_ipr < 0.10 and rel_peak < 0.10,
                f"relative difference W={W_values[-1]} vs W={W_values[0]}: "
                f"ipr {rel_ipr:.4f}, peak {rel_peak:.4f}",
            )
        )
    return checks


def _chain_checks(cfg: ExperimentConfig, summaries: list, _mitigations) -> list[dict]:
    if cfg.noise is not None or len(cfg.W_values) < 2:
        return []
    if _method(cfg) == "statevector":
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
    s = level_spacing_stats(phases)
    stats = np.stack([s.mean_spacing, s.spacing_variance, s.min_spacing], axis=-1)
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
    chiral_var, nonchiral_var = s.spacing_variance.T
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
    rows = amplitude_decay_sweep(
        cfg.axis,
        cfg.noise,
        cfg.values,
        L=cfg.L,
        start_site=cfg.start_site,
        shots=cfg.shots,
        n_seeds=cfg.sweep_seeds,
    )
    write_csv(outdir / "decay.csv", ["x", "mean_peak_amplitude"], rows)
    xs = np.array([x for x, _ in rows], dtype=float)
    amps = np.array([a for _, a in rows])
    if np.any(amps <= 0.0):
        return [_check("amplitudes_positive", False, "zero amplitude point")]
    logs = np.log(amps)
    if cfg.axis == "steps_at_fixed_L":
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
    circuits; the kinds without circuit points write none."""
    outdir = Path(output_dir or cfg.output_dir or f"results/{cfg.kind}")
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
