"""srm3 benchmark: CLI workloads driven in process through ``srm3.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is one closed loop in one process: each command starts when the
previous one has returned.  BLAS and OpenMP pools are capped at one thread.
A fixed probe is timed every 50 ms while a timed command runs
(``calibrate.py``), and every time is scaled to the host speed the probe
showed over it, so that drift of a shared host between and within runs does
not read as a change of the program.
Inputs are made from ``--seed`` by ``inputs.py``; the program only sees the
generated config and tables.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``METRICS.md``).  Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are written
to ``.perfbench-work/spans/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks as chk  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "record_ms_p50": "ms",
    "record_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate" or "verify"
    make_config: Callable[[int, int], dict]
    records: int  # realizations (simulate) or seeds (verify) per full command
    samples: int  # samples per record
    method_code: int  # sample-header wire code
    full_period: bool  # records cover whole fundamental periods
    setup_reps: int
    tables: bool = False  # writes tabulated CSV targets


#: Fewest full commands a run times, however long they take.
MIN_COMMANDS = 2

WORKLOADS = {
    "wind-ensemble": Workload(
        "simulate", inputs.wind_config, records=16, samples=60_000, method_code=4,
        full_period=True, setup_reps=9,
    ),
    "wind-verify": Workload(
        "verify", inputs.wind_config, records=1, samples=120_000, method_code=4,
        full_period=True, setup_reps=3,
    ),
    "gaussian-long": Workload(
        "simulate", inputs.gaussian_config, records=4, samples=60_000, method_code=1,
        full_period=True, setup_reps=15,
    ),
    "synthetic-large": Workload(
        "simulate", inputs.synthetic_config, records=10, samples=2 * inputs.SYN_N,
        method_code=4, full_period=False, setup_reps=5, tables=True,
    ),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """``srm3.cli.main`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "srm3", "cli.py")):
        fail(f"no srm3 sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import srm3
        from srm3.cli import main
    except ImportError as exc:
        fail(f"cannot import srm3: {exc}")
    if not os.path.abspath(srm3.__file__).startswith(SRC + os.sep):
        fail(f"srm3 imported from {srm3.__file__}, not from {SRC}")
    return main


def capture_verify_reports() -> list:
    """The report objects ``verify_ergodic_identities`` returns, as they come.

    ``srm3 verify`` prints its report rounded, without metadata; the checks
    need full-precision targets and the resonant-collision count.
    """
    reports: list = []
    found = spans._resolve("srm3.workbench", "verify_ergodic_identities")
    if found is not None:
        original = found[2]

        def capture(*args, **kwargs):
            report = original(*args, **kwargs)
            reports.append(report)
            return report

        spans.patch_everywhere(original, capture)
    return reports


def run_command(main, argv: list[str]) -> tuple[object, float]:
    """Exit code (or the exception) and wall time of one CLI command."""
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the benchmark reports a crash as a failed check
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start


class Clock:
    """Timed commands, each with the host-speed samples taken while it ran."""

    def __init__(self):
        self.raw: list[float] = []  # wall seconds per timed command
        self.hosts: list[calibrate.HostSpeed] = []

    def timed(self, main, argv: list[str]):
        """Exit code (or the exception) of one timed command."""
        with calibrate.HostSpeed() as host:
            rc, seconds = run_command(main, argv)
        self.raw.append(seconds)
        self.hosts.append(host)
        return rc

    def speed(self, i: int) -> float:
        return self.hosts[i].speed()

    def scaled(self, i: int) -> float:
        """Seconds of command ``i`` at the nominal host speed."""
        return self.raw[i] * self.speed(i)

    def scaled_intervals(self, i: int, times: list[float]) -> list[float]:
        """Intervals between consecutive wall-clock ``times`` in command ``i``.

        Each is scaled to the host speed sampled inside it, or to the
        command's when no sample fell inside.
        """
        out = []
        for a, b in zip(times, times[1:]):
            speed = self.hosts[i].speed(a, b)
            out.append((b - a) * (speed if speed is not None else self.speed(i)))
        return out


def cli_args(w: Workload, config_path: str, records: int, out_dir: str) -> list[str]:
    flag = "--realizations" if w.command == "simulate" else "--seeds"
    return [w.command, "--config", config_path, flag, str(records), "--out", out_dir]


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with 10 samples beyond.

    With fewer than 20 samples no percentile above the median has 10 samples
    beyond it; the tail is then the median, reported as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    p = math.floor(100.0 * (n - 10) / n)
    return float(p), ordered[math.ceil(p / 100.0 * n) - 1]


def completion_times(out_dir: str, records: int) -> list[float]:
    """Wall-clock completion (mtime) times of the sample files, in seconds."""
    times = []
    for r in range(records):
        try:
            times.append(os.stat(chk.sample_path(out_dir, r)).st_mtime_ns * 1e-9)
        except OSError:
            return []
    return times


def git_commit() -> str | None:
    """Commit of the checkout, or ``None`` outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def metadata(args, w: Workload, v: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": v,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "records_per_command": w.records,
        "samples_per_record": w.samples,
    }


def check_simulate_command(checks, w: Workload, v: int, reference, out_dir, check_dir):
    """Check one full simulate command's outputs.

    Returns its sample-file completion times and the largest error of
    realization 0's first samples against the reference, in units of RMS.
    """
    times = completion_times(out_dir, w.records)
    chk.check_sample_files(checks, out_dir, w.records, inputs.M, w.samples, w.method_code, v)
    first = chk.sample_path(out_dir, 0)
    chk.check_identical(checks, chk.sample_path(check_dir, 0), first)
    ref_err = chk.check_first_samples(checks, first, reference["first"], reference["rms"])
    report = os.path.join(out_dir, "report.json")
    try:
        passed, rows = chk.report_json_rows(report)
    except (OSError, ValueError, KeyError) as exc:
        checks.check(False, f"{report} unreadable ({exc})")
        return times, ref_err
    chk.check_targets(checks, rows, reference["targets"], report)
    if w.full_period:
        checks.check(passed, f"{report}: report failed")
    return times, ref_err


def check_verify_report(checks, reference, report) -> None:
    chk.check_targets(checks, chk.verify_rows(report), reference["targets"], "verify report")
    checks.check(report.passed, "verify report failed")
    collisions = report.metadata.get("resonant_collisions")
    want = reference["resonant_collisions"]
    checks.check(collisions == want, f"resonant_collisions {collisions}, reference {want}")


def per_layer_metrics(tracer, clock, full, ref_err: float) -> dict:
    """Medians over the traced commands, plus the informational metrics.

    Layer times are scaled to the host speed around their command, as the
    end-to-end times are.
    """
    per_run = []
    for k, (i, traced, _) in enumerate(full):
        if traced:
            values = tracer.metrics(k)
            for name, (unit, _, _) in spans.METRICS.items():
                if unit == "s" and values[name] is not None:
                    values[name] *= clock.speed(i)
            per_run.append(values)
    metrics = {}
    for name, (unit, _, _) in spans.METRICS.items():
        values = [m[name] for m in per_run]
        if values[0] is None:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced = statistics.median(clock.scaled(i) for i, t, _ in full if t)
    untraced = statistics.median(clock.scaled(i) for i, t, _ in full if not t)
    metrics["fft.ref_err_max"] = {"value": ref_err, "unit": "rms"}
    metrics["trace_overhead"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return metrics


def finite_or_none(x):
    return x if x is None or math.isfinite(x) else None


def main_bench(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    main = import_program()
    try:
        reference = chk.load_reference(os.path.join(HERE, "reference"), args.workload)
    except (OSError, ValueError) as exc:
        fail(f"no reference outputs: {exc}")
    v = inputs.variant(args.seed)
    if "variants" in reference:  # per-variant entries override shared ones
        reference = {**reference, **reference["variants"][v]}
    meta = metadata(args, w, v)
    checks = chk.Checks()

    # inputs
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "run.json")
    inputs.write_config(config_path, w.make_config(v, w.records))
    if w.tables:
        inputs.write_synthetic_tables(work, v)
    reports = capture_verify_reports() if w.command == "verify" else None

    # realization 0 of every full command must equal this one, byte for byte;
    # the command also warms up the process before anything is timed
    check_dir = os.path.join(work, "check")
    if w.command == "simulate":
        rc, _ = run_command(main, cli_args(w, config_path, 1, check_dir))
        checks.check(rc == 0, f"one-realization command exited {rc!r}")
    clock = Clock()

    # set-up time: the workload command with zero records
    for _ in range(w.setup_reps):
        rc = clock.timed(main, cli_args(w, config_path, 0, os.path.join(work, "setup")))
        checks.check(rc == 0, f"zero-record command exited {rc!r}")
    if w.command == "verify":
        reports.clear()

    # closed loop of full commands, each checked (untimed) before the next;
    # a traced run alternates untraced and traced commands, so the tracing
    # overhead is measured in the same run
    tracer = spans.Tracer() if args.trace else None
    full = []  # (clock index, traced, record completion times) per full command
    ref_err, spent = 0.0, 0.0
    while True:
        k = len(full)
        traced = tracer is not None and k % 2 == 1
        out_dir = os.path.join(work, f"run{k}")
        if traced:
            tracer.run = k
            tracer.install()
        try:
            rc = clock.timed(main, cli_args(w, config_path, w.records, out_dir))
        finally:
            if traced:
                tracer.uninstall()
        checks.check(rc == 0, f"full command {k} exited {rc!r}")
        spent += clock.raw[-1]
        got = []
        if w.command == "simulate":
            got, err = check_simulate_command(checks, w, v, reference, out_dir, check_dir)
            ref_err = max(ref_err, err)
            shutil.rmtree(out_dir, ignore_errors=True)
        full.append((len(clock.raw) - 1, traced, got))
        if rc != 0 or (len(full) >= MIN_COMMANDS and spent >= args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if w.command == "verify":
        checks.check(len(reports) == len(full), "verify reports not captured")
        for report in reports:
            check_verify_report(checks, reference, report)

    # every time below is scaled to the host speed around its command
    setup_s = statistics.median(clock.scaled(i) for i in range(w.setup_reps))
    untraced = [clock.scaled(i) for i, traced, _ in full if not traced]
    wall_s = statistics.median(untraced)
    intervals = [t for i, traced, got in full if not traced for t in clock.scaled_intervals(i, got)]
    if w.command == "verify":  # no sample files: a record's share beyond set-up
        intervals = [(s - setup_s) / w.records for s in untraced]
    if not intervals:
        checks.check(False, "no record completion times")
        intervals = [float("nan")]
    percentile, tail_s = tail(intervals)
    meta.update(
        setup_times=clock.raw[: w.setup_reps],
        command_times=clock.raw[w.setup_reps :],
        host_speeds=[clock.speed(i) for i in range(len(clock.raw))],
        record_intervals=len(intervals),
        record_interval_ms=[round(1e3 * t, 3) for t in intervals],
        record_tail_percentile=percentile,
        failures=checks.failures,
    )

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "records_per_s": w.records / max(wall_s - setup_s, 1e-9),
            "record_ms_p50": 1e3 * statistics.median(intervals),
            "record_ms_tail": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = per_layer_metrics(tracer, clock, full, ref_err)
        meta["missing_functions"] = tracer.missing
        tracer.dump(os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
    for m in metrics.values():
        m["value"] = finite_or_none(m["value"])

    for name, m in metrics.items():
        value = "absent" if m.get("absent") else f"{m['value']}"
        print(f"{args.workload} {name} = {value} {m['unit']}")
    print(f"{args.workload} record_ms_tail is p{percentile:g} of {len(intervals)} intervals")
    print(f"{args.workload} checks: {checks.attempted - checks.failed}/{checks.attempted} passed")
    print("meta " + json.dumps(meta))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_bench())
