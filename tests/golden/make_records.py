"""Golden records of the compiled synthesizer, for the byte-identity test.

Run from the repository root to (re)write ``tests/golden/records.json``::

    PYTHONPATH=src python tests/golden/make_records.py

For every configuration in ``CONFIGS`` and realization in ``REALIZATIONS``
of seed ``SEED`` the file stores the record's sha256 (of its float64 bytes),
its first and last ``EDGE`` samples per variate as ``float.hex``, and once
the fingerprint of the machine that made it.  ``tests/test_golden.py``
compares a fresh run against it.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/, for _targets

from _targets import coherent_gaussian, collision_free_univariate, coupled_third_order  # noqa: E402
from srm3 import (  # noqa: E402
    CrossBispectrum,
    Method,
    SamplingPlan,
    Synthesizer,
    build_example_targets,
    example_grid,
)

PATH = Path(__file__).with_name("records.json")
SEED = 20
REALIZATIONS = (0, 3)
EDGE = 8


def _wind(method, blocks=None):
    S, B = build_example_targets(example_grid())
    B = CrossBispectrum(S.grid, 0.04 * B.values)
    return Synthesizer(S, B, method, SamplingPlan.for_grid(S.grid, blocks=blocks))


def _complex_m3():
    S = coherent_gaussian(3, delta_omega=0.25)[1]
    B = CrossBispectrum(S.grid, coupled_third_order(m=3)[2].values)
    return Synthesizer(S, B, Method.THIRD_ORDER_MV_FFT)


CONFIGS = {
    "wind 0.04 third-mv-fft blocks=3": lambda: _wind(Method.THIRD_ORDER_MV_FFT, blocks=3),
    "wind second": lambda: _wind(Method.SECOND_ORDER),
    "synthetic m=1 third-uv": lambda: Synthesizer(
        *collision_free_univariate()[1:], Method.THIRD_ORDER_UV
    ),
    "synthetic m=2 third-mv": lambda: Synthesizer(
        *coupled_third_order(m=2)[1:], Method.THIRD_ORDER_MV
    ),
    "synthetic complex m=3 third-mv-fft": _complex_m3,
}


def fingerprint() -> dict:
    """What the record bytes may depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy without the dict mode
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "machine": platform.machine()}


def describe(values: np.ndarray) -> dict:
    """The stored form of one record's ``(m, n_samples)`` values."""
    return {
        "sha256": hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest(),
        "shape": list(values.shape),
        "head": [[float(x).hex() for x in row[:EDGE]] for row in values],
        "tail": [[float(x).hex() for x in row[-EDGE:]] for row in values],
    }


def main() -> None:
    records = {}
    for name, make in CONFIGS.items():
        synth = make()
        records[name] = {str(r): describe(synth.record(SEED, r).values) for r in REALIZATIONS}
    data = {"fingerprint": fingerprint(), "seed": SEED, "records": records}
    PATH.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
