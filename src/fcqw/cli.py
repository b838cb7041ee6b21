"""Command-line entry point.

    fcqw run <config.json>       run an experiment, print its check lines
    fcqw emit-qasm <config.json> write only the OpenQASM artifacts
    fcqw check <result-dir>      re-validate a result directory

Exit code 0 iff all built-in checks pass.
Exit codes of a failed run or emission: 1 a check failed, 2 bad config, 3 it crashed.
"""
from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, check_result_dir, emit_experiment_qasm, load_config, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fcqw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--output-dir", default=None, help="override the config's output_dir")

    p_emit = sub.add_parser("emit-qasm", help="emit the experiment's OpenQASM files")
    p_emit.add_argument("config", help="path to the experiment config")
    p_emit.add_argument("--output-dir", default=None)

    p_check = sub.add_parser("check", help="re-validate a result directory")
    p_check.add_argument("result_dir", help="directory produced by 'fcqw run'")

    args = parser.parse_args(argv)

    if args.command == "check":
        ok, messages = check_result_dir(args.result_dir)
        for line in messages:
            print(line)
        return 0 if ok else 1

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    action = run_experiment if args.command == "run" else emit_experiment_qasm
    try:
        result = action(cfg, args.output_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the CLI boundary: report, never a traceback
        print(f"error: run crashed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.command == "emit-qasm":
        for path in result:
            print(path)
        return 0
    ok, messages = check_result_dir(result)
    for line in messages:
        print(line)
    print(f"results written to {result}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
