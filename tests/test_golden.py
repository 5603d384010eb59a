"""Records against the committed golden file (``tests/golden/records.json``).

Values are always compared, to 1e-13 of the record's RMS; the sha256 of each
record only when this machine's fingerprint (numpy version, BLAS, machine)
equals the one the file was made on, since other BLAS or CPU kernels may
round differently.  Regenerate with ``tests/golden/make_records.py``.
"""

import json

import numpy as np
import pytest

from golden.make_records import CONFIGS, EDGE, PATH, REALIZATIONS, describe, fingerprint

GOLDEN = json.loads(PATH.read_text())


@pytest.fixture(scope="module", params=list(CONFIGS))
def records(request):
    synth = CONFIGS[request.param]()
    stored = GOLDEN["records"][request.param]
    return [(synth.record(GOLDEN["seed"], r).values, stored[str(r)]) for r in REALIZATIONS]


def test_golden_record_values(records):
    for values, stored in records:
        assert list(values.shape) == stored["shape"]
        rms = np.sqrt(np.mean(values**2, axis=1, keepdims=True))
        for part, have in (("head", values[:, :EDGE]), ("tail", values[:, -EDGE:])):
            want = np.array([[float.fromhex(x) for x in row] for row in stored[part]])
            assert np.all(np.abs(have - want) <= 1e-13 * rms), part


def test_golden_record_bytes(records):
    here, there = fingerprint(), GOLDEN["fingerprint"]
    if here != there:
        pytest.skip(f"values only: fingerprint {here} differs from the golden {there}")
    for values, stored in records:
        assert describe(values)["sha256"] == stored["sha256"]
