"""Output checks of the benchmark; every check counts towards ``attempted``.

The expected values come from ``reference/<workload>.json``, computed once
by ``make_reference.py`` (targets by the term set, first samples by direct
summation), so a program change is compared with the program as it was when
the reference was made.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

#: Sample-file header, as documented in ``srm3.io``.
HEADER = struct.Struct("<4sIII d B Q I")

#: Relative tolerance of report targets against the reference.
TARGET_RTOL = 1e-10
#: Tolerance of the first samples of record 0, in units of the target RMS.
SAMPLE_TOL = 1e-8


class Checks:
    """Tally of attempted and failed checks, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def load_reference(directory: str, workload: str) -> dict:
    with open(os.path.join(directory, f"{workload}.json")) as fh:
        return json.load(fh)


def sample_path(out_dir: str, r: int) -> str:
    return os.path.join(out_dir, f"sample_{r:04d}.srm3")


def check_sample_files(checks: Checks, out_dir, records, m, samples, method_code, seed):
    """Every record reads back through ``read_samples`` with the expected header."""
    from srm3.io import read_samples

    for r in range(records):
        path = sample_path(out_dir, r)
        try:
            with open(path, "rb") as fh:
                header = HEADER.unpack(fh.read(HEADER.size))
            record = read_samples(path)
        except (OSError, struct.error, ValueError) as exc:
            checks.check(False, f"{path}: unreadable ({exc})")
            continue
        _, _, h_m, h_n, _, h_code, h_seed, h_idx = header
        want = (m, samples, method_code, seed, r)
        got = (h_m, h_n, h_code, h_seed, h_idx)
        ok = got == want and record.values.shape == (m, samples)
        checks.check(ok, f"{path}: header {got}, expected {want}")


def check_identical(checks: Checks, path_a: str, path_b: str) -> None:
    try:
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            same = fa.read() == fb.read()
    except OSError as exc:
        same = False
        path_b = f"{path_b} ({exc})"
    checks.check(same, f"{path_a} differs from {path_b}")


def check_first_samples(checks: Checks, path: str, first, rms) -> float:
    """First samples of a record against the direct-summation reference.

    Returns the largest error in units of RMS (``inf`` if unreadable).
    """
    from srm3.io import read_samples

    ref = np.asarray(first)
    try:
        values = read_samples(path).values[:, : ref.shape[1]]
        err = float(np.max(np.abs(values - ref) / np.asarray(rms)[:, None]))
    except (OSError, ValueError) as exc:
        checks.check(False, f"{path}: unreadable ({exc})")
        return float("inf")
    checks.check(err <= SAMPLE_TOL, f"{path}: first samples off by {err:.3e} RMS")
    return err


def check_targets(checks: Checks, rows, reference: dict, what: str) -> None:
    """Report targets equal the reference targets to ``TARGET_RTOL``.

    ``rows`` are ``(label, target)`` pairs; labels not in the reference, or
    reference labels missing from the rows, fail the check.
    """
    seen = {label for label, _ in rows}
    bad = [f"missing {label}" for label in reference if label not in seen]
    for label, target in rows:
        want = reference.get(label)
        if want is None:
            bad.append(f"unexpected {label}")
        elif not abs(target - want) <= TARGET_RTOL * abs(want):
            bad.append(f"{label}: {target!r} vs {want!r}")
    checks.check(not bad, f"{what}: targets differ from the reference: {bad[:3]}")


def report_json_rows(path: str):
    """``(passed, [(label, target), ...])`` of a ``report.json``."""
    with open(path) as fh:
        report = json.load(fh)
    return report["passed"], [(r["label"], r["target"]) for r in report["rows"]]


def verify_rows(report):
    """Rows of a verification report keyed without their ``seed N:`` prefix."""
    return [(r.label.split(": ", 1)[1], r.target) for r in report.rows]
