"""Command-line workbench.

Subcommands::

    srm3 simulate --config run.json [--seed N] [--realizations R]
                  [--method M] [--out DIR] [--format bin|csv]
    srm3 verify   --config run.json [--seeds K]
    srm3 tables   [--realizations R] [--seed N] [--bispectrum-scale C]
    srm3 bench    [--size N] [--variates M]

Exit codes: 0 success, 2 configuration error, 3 unrealizable target,
4 I/O error, 1 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import RunConfig, parse_config, range_problems
from .errors import (
    ConfigError,
    InfeasibleBispectrumError,
    SampleCorruptionError,
    SampleFormatError,
    Srm3Error,
)
from .simulate import Method
from .workbench import (
    run_bench,
    run_simulation,
    run_tables,
    verify_ergodic_identities,
    write_error_record,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

_METHODS = {m.value: m for m in Method}


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    config = parse_config(text, base_dir=os.path.dirname(args.config) or ".")
    # command-line overrides
    updates = {}
    seed = getattr(args, "seed", None)
    realizations = getattr(args, "realizations", None)
    first = config.seed if seed is None else seed
    problems = range_problems(first, realizations, getattr(args, "seeds", None), "--")
    if problems:
        raise ConfigError(problems)
    if seed is not None:
        updates["seed"] = seed
    if realizations is not None:
        updates["realizations"] = realizations
    if getattr(args, "method", None) is not None:
        method = _METHODS[args.method]
        if method is Method.THIRD_ORDER_UV and config.grid.m != 1:
            raise ConfigError("method 'third-uv' requires grid.m = 1")
        updates["method"] = method
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    if getattr(args, "format", None) is not None:
        updates["out_format"] = args.format
    if updates:
        from dataclasses import replace

        config = replace(config, **updates)
    return config


def _run(config: RunConfig, job):
    """``(report, exit code)`` of a job; a domain error leaves ``error.json``."""
    try:
        return job(), EXIT_OK
    except Srm3Error as exc:
        write_error_record(config.out_dir, exc)
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleBispectrumError):
            return None, EXIT_INFEASIBLE
        if isinstance(exc, (SampleFormatError, SampleCorruptionError)):
            return None, EXIT_IO
        return None, EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return None, EXIT_IO


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    report, code = _run(config, lambda: run_simulation(config, write_plot_data=args.plot_data))
    if report is not None:
        print(report)
    return code


def _cmd_verify(args) -> int:
    config = _load_config(args)
    seeds = list(range(config.seed, config.seed + args.seeds))
    report, code = _run(config, lambda: verify_ergodic_identities(config, seeds))
    if report is None:
        return code
    print(report)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_tables(args) -> int:
    seed = 0 if args.seed is None else args.seed
    realizations = 200 if args.realizations is None else args.realizations
    scale = args.bispectrum_scale
    problems = range_problems(seed, realizations, prefix="--")
    if realizations == 0:
        problems.append("--realizations must be at least 1, got 0")
    if scale is not None and not math.isfinite(scale):
        problems.append(f"--bispectrum-scale must be finite, got {scale}")
    if problems:
        raise ConfigError(problems)
    report, infeasible = run_tables(seed, realizations, scale)
    print(report)
    if infeasible is not None:
        print(f"third-order ensemble not run: {infeasible}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    result = run_bench(N=args.size, m=args.variates)
    print(
        f"N={result.N} m={result.m} samples={result.n_samples}:"
        f" compile {result.compile_seconds:.3f}s once,"
        f" per record: direct {result.direct_seconds:.3f}s,"
        f" fft {result.fft_seconds:.3f}s,"
        f" speedup {result.speedup:.1f}x,"
        f" max |direct - fft| / rms = {result.max_mismatch_over_rms:.2e}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srm3",
        description="Synthesis workbench for non-Gaussian vector processes"
        " with prescribed cross-spectra and cross-bispectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument(
            "--realizations", type=int, help="override the configured ensemble size"
        )

    p_sim = sub.add_parser("simulate", help="generate sample records and a moment report")
    common(p_sim)
    p_sim.add_argument("--method", choices=sorted(_METHODS), help="override the method")
    p_sim.add_argument("--out", help="output directory")
    p_sim.add_argument("--format", choices=("bin", "csv"), help="sample file format")
    p_sim.add_argument(
        "--plot-data", action="store_true", help="also write moments.csv plot data"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser(
        "verify", help="check single-record ergodic identities against discrete targets"
    )
    common(p_ver)
    p_ver.add_argument("--method", choices=sorted(_METHODS), help="override the method")
    p_ver.add_argument("--out", help="directory for error records")
    p_ver.add_argument(
        "--seeds", type=int, default=3, help="number of consecutive seeds to check"
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_tab = sub.add_parser(
        "tables", help="reproduce the wind example's published moment tables"
    )
    p_tab.add_argument("--seed", type=int)
    p_tab.add_argument("--realizations", type=int)
    p_tab.add_argument(
        "--bispectrum-scale",
        type=float,
        help="run the third-order ensemble with the bispectrum scaled by this"
        " factor (the published scale is unrealizable)",
    )
    p_tab.set_defaults(func=_cmd_tables)

    p_bench = sub.add_parser("bench", help="time the direct vs FFT synthesis paths")
    p_bench.add_argument("--size", type=int, default=512, help="frequency bins N")
    p_bench.add_argument("--variates", type=int, default=3)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
