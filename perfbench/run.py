"""fcqw benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload noisy_walk --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  The workload's stages run back to
back in this process (a closed loop with one caller, ``FCQW_THREADS``
unset so the shot loop is serial), in rounds: one warm-up round, then
timed rounds until another would overrun ``--seconds``.  At least one
timed round runs, so the artifact digest can be compared between rounds
of the same seed.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (sum over
stages of the stage's median time across timed rounds), ``setup_s``
(median of several fresh-process set-ups), ``peak_rss_mb`` and
``success_ratio``; ``wall_s`` is in reference seconds (see hostspeed.py).
``--trace 1`` runs a warm-up round, one plain round and one traced round
and prints the per-layer metrics, in wall seconds.  The last line of
standard output is the JSON result; the lines before it are for people.
See NOTES.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
WARMUP_ROUNDS = 1
#: seconds between host-speed samples while a stage runs
STAGE_PERIOD = 0.2
ARTIFACT_SUFFIXES = (".csv", ".qasm")
#: the terms of the self-time identity checked on every traced run
SELF_TIME_TERMS = (
    "harness.self_s", "noise.self_s", "circuits.self_s", "floquet.self_s",
    "observables.s", "qasm.emit_s", "trace.bench_self_s",
)


def _import_fcqw():
    """Import fcqw from this checkout's src/ only."""
    if not (SRC / "fcqw" / "__init__.py").is_file():
        raise SystemExit(f"error: no fcqw sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fcqw

    if Path(fcqw.__file__).resolve().parent != SRC / "fcqw":
        raise SystemExit(f"error: imported fcqw from {fcqw.__file__}, not {SRC}")


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Wall seconds for import fcqw, config validation and input
    generation, measured in this (fresh) process."""
    t0 = time.perf_counter()
    _import_fcqw()
    import workloads

    workloads.build(workload, seed, ROOT, tiny)
    return time.perf_counter() - t0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def host_reading() -> dict[str, float]:
    """Fixed pure-Python and numpy loops; a slow host shows here."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    t1 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 1 << 16)
    for _ in range(200):
        a = np.sin(a) + 0.5
    t2 = time.perf_counter()
    return {"py_loop_s": t1 - t0, "np_loop_s": t2 - t1}


def _getconf(name: str) -> int | None:
    try:
        done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def machine_facts(fcqw_threads_was_set: bool) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "fcqw_threads_was_set": fcqw_threads_was_set,
    }


def digest(outdir: Path) -> tuple[str, int]:
    """SHA-256 over every CSV, QASM and checks.json (path and bytes) under
    outdir, and their total size.  manifest.json is left out: it holds the
    output path."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and (path.suffix in ARTIFACT_SUFFIXES or path.name == "checks.json"):
            data = path.read_bytes()
            h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


@dataclass
class Tally:
    """What the rounds of one run found."""

    per_stage: dict[str, list[float]]  # reference seconds, warm-up round first
    raw_stage: dict[str, list[float]]  # the same in wall seconds
    round_totals: list[float] = field(default_factory=list)  # wall seconds
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    checks: dict[str, int | None] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    artifact_bytes: int = 0


def run_round(stages, round_dir: Path, tally: Tally, clock=None, recorder=None) -> tuple[dict, set]:
    """Run every stage once, timed by ``clock`` (a hostspeed.HostClock)
    when given, else by the wall clock alone, and inside a
    ``bench.<stage>`` span when traced; returns the stage results and the
    names of stages that raised."""
    results, failed = {}, set()
    total = 0.0
    for stage in stages:
        span = recorder.span(f"bench.{stage.name}") if recorder else contextlib.nullcontext()
        timed = clock.timed() if clock else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with timed as t, span:
                results[stage.name] = stage.run(round_dir / stage.name)
        except Exception as exc:  # a crashing stage is a failed operation
            tally.problems.append(f"{stage.name}: raised {type(exc).__name__}: {exc}")
            failed.add(stage.name)
        elapsed = t.raw_s if clock else time.perf_counter() - t0
        tally.raw_stage[stage.name].append(elapsed)
        tally.per_stage[stage.name].append(t.ref_s if clock else elapsed)
        total += elapsed
    tally.round_totals.append(total)
    return results, failed


def verify_round(stages, round_dir: Path, tally: Tally, results: dict, failed: set) -> None:
    """Check the round's results and artifacts; runs untimed and, on a
    traced run, after the entry points are unwrapped, so its own fcqw
    calls make no spans."""
    for stage in stages:
        if stage.name in failed:
            continue
        try:
            found, n_checks = stage.verify(round_dir / stage.name, results[stage.name])
        except Exception as exc:
            found, n_checks = [f"{stage.name}: verify raised {type(exc).__name__}: {exc}"], None
        if found:
            tally.problems += found
            failed.add(stage.name)
        tally.checks[stage.name] = n_checks

    tally.artifact_bytes = 0
    for stage in stages:
        d, size = digest(round_dir / stage.name)
        tally.artifact_bytes += size
        if tally.digests.setdefault(stage.name, d) != d:
            tally.problems.append(f"{stage.name}: artifact digest differs from the first round's")
            failed.add(stage.name)
    tally.attempted += len(stages)
    tally.failed += len(failed)
    shutil.rmtree(round_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every stage, for the smoke test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    tiny = args.scale == "tiny"

    fcqw_threads_was_set = os.environ.pop("FCQW_THREADS", None) is not None
    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed, tiny)}))
        return 0

    _import_fcqw()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    facts = machine_facts(fcqw_threads_was_set)
    host_start = host_reading()
    setup_samples = measure_setup(args) if args.trace == 0 else []
    stages = workloads.build(args.workload, args.seed, ROOT, tiny)
    names = [s.name for s in stages]
    tally = Tally({n: [] for n in names}, {n: [] for n in names})

    out_root = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    layer: dict[str, float] = {}
    try:
        start = time.perf_counter()
        if args.trace:
            import spans

            for r in range(WARMUP_ROUNDS + 1):
                verify_round(stages, out_root / f"r{r}", tally, *run_round(stages, out_root / f"r{r}", tally))
            recorder = spans.Recorder()
            traced_dir = out_root / f"r{WARMUP_ROUNDS + 1}"
            with recorder.installed():
                outcome = run_round(stages, traced_dir, tally, recorder=recorder)
            verify_round(stages, traced_dir, tally, *outcome)
            layer = spans.layer_metrics(recorder, workloads.SHIPPED_CONFIGS)
        else:
            import hostspeed

            clock = hostspeed.HostClock(STAGE_PERIOD)
            while True:
                round_dir = out_root / f"r{len(tally.round_totals)}"
                verify_round(stages, round_dir, tally, *run_round(stages, round_dir, tally, clock))
                if len(tally.round_totals) == 1:
                    # set-up plus one batch, as a user runs it; later rounds
                    # grow the heap by how the allocator reuses freed blocks
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                elapsed = time.perf_counter() - start
                if (len(tally.round_totals) > WARMUP_ROUNDS
                        and elapsed + max(tally.round_totals) > args.seconds):
                    break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_root.parent.rmdir()  # only if no other run is using it
    host_end = host_reading()

    unchecked = sorted(n for n, c in tally.checks.items() if c == 0)
    if args.trace == 0:
        metrics = {
            "wall_s": sum(statistics.median(v[WARMUP_ROUNDS:]) for v in tally.per_stage.values()),
            # wall seconds: set-up, mostly imports, does not follow the
            # reference's speed (NOTES.md, "Host noise")
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "success_ratio": 1.0 - tally.failed / tally.attempted,
        }
    else:
        import micro

        layer.update(micro.statevec_metrics(10 if tiny else 20))
        layer["harness.checks"] = float(sum(c or 0 for c in tally.checks.values()))
        layer["harness.unchecked_experiments"] = float(len(unchecked))
        layer["harness.artifact_bytes"] = float(tally.artifact_bytes)
        layer["trace.overhead_ratio"] = tally.round_totals[-1] / tally.round_totals[-2]
        self_sum = sum(layer[k] for k in SELF_TIME_TERMS)
        if abs(self_sum - layer["trace.wall_s"]) > 1e-6 * max(1.0, layer["trace.wall_s"]):
            tally.problems.append(f"self times sum to {self_sum} s, traced wall is {layer['trace.wall_s']} s")
        metrics = layer

    print("machine " + json.dumps(facts, sort_keys=True))
    print("host " + json.dumps({"start": host_start, "end": host_end}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"rounds {len(tally.round_totals)} trace {args.trace}")
    print(f"warmup_rounds {WARMUP_ROUNDS} (listed first, left out of the medians)")
    for n in names:
        timed = " ".join(f"{t:.4f}" for t in tally.per_stage[n])
        raw = " ".join(f"{t:.4f}" for t in tally.raw_stage[n])
        print(f"stage {n} median_s {statistics.median(tally.per_stage[n][WARMUP_ROUNDS:]):.4f} "
              f"rounds_s {timed} wall_rounds_s {raw} checks {tally.checks.get(n)}")
    print("round_totals_wall_s " + " ".join(f"{t:.4f}" for t in tally.round_totals))
    if setup_samples:
        print("setup_samples_s " + " ".join(f"{t:.4f}" for t in setup_samples))
    if layer:
        print(f"trace self_sum_s {self_sum:.9f} wall_s {layer['trace.wall_s']:.9f}")
    workload_digest = hashlib.sha256("".join(tally.digests[n] for n in names).encode()).hexdigest()
    print(f"digest sha256:{workload_digest} artifact_bytes {tally.artifact_bytes}")
    print(f"unchecked_experiments {len(unchecked)} {' '.join(unchecked)}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    for p in tally.problems:
        print(f"FAIL {p}")
    # names and units come from BENCHMARK.json; a metric missing from
    # either side is a defect of the benchmark and raises here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in section}:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in section})}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
