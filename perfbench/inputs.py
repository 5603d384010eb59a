"""Seeded inputs of the benchmark workloads: run configs and target tables.

Nothing here imports ``srm3``: the inputs are a function of the benchmark
seed alone, so a change to the program cannot change what it is fed.

A benchmark seed selects one of ``POOL`` input variants (``seed % POOL``).
Reference outputs for every variant were computed once with
``make_reference.py``, which also checks that the pure/interaction split is
feasible for each of them.
"""

from __future__ import annotations

import json
import os

import numpy as np

#: Number of distinct input variants; reference outputs exist for each one.
POOL = 32

M = 3
WIND = {"m": M, "N": 100, "omega_u": 2.0}
WIND_TARGET = {"kind": "wind-example", "bispectrum_scale": 0.04}

#: Synthetic tabulated targets: grid and bispectrum strength.
SYN_N = 128
SYN_DELTA_OMEGA = 0.01
SYN_BICOHERENCE = 0.25  # about 40% of the feasible limit at N = 128


def variant(seed: int) -> int:
    return seed % POOL


def wind_config(v: int, realizations: int) -> dict:
    """The paper's demonstration run: wind targets, MV-FFT, full period."""
    return {
        "schema_version": 1,
        "grid": dict(WIND),
        "target": dict(WIND_TARGET),
        "method": "third-mv-fft",
        "seed": v,
        "realizations": realizations,
    }


def gaussian_config(v: int, realizations: int) -> dict:
    """Second-order synthesis of the wind spectrum over 100 fundamental periods."""
    return {
        "schema_version": 1,
        "grid": dict(WIND, offset_rule="second-order-classic", blocks=300),
        "target": dict(WIND_TARGET),
        "method": "second",
        "seed": v,
        "realizations": realizations,
    }


def synthetic_config(v: int, realizations: int) -> dict:
    """Tabulated broad-band targets, one-block MV-FFT records."""
    return {
        "schema_version": 1,
        "grid": {"m": M, "N": SYN_N, "delta_omega": SYN_DELTA_OMEGA, "blocks": 1},
        "target": {
            "kind": "tabulated",
            "spectrum_csv": "spectrum.csv",
            "bispectrum_csv": "bispectrum.csv",
        },
        "method": "third-mv-fft",
        "seed": v,
        "realizations": realizations,
    }


def synthetic_spectrum(v: int) -> np.ndarray:
    """Broad-band cross-spectrum ``(N, m, m)`` of variant ``v``.

    Algebraically decaying single-point spectra with exponential coherence
    between points on a line, plus a nugget that keeps every bin well
    conditioned (the pure split divides by the spectrum at source bins).
    """
    rng = np.random.default_rng([0x5EED, v])
    w = (np.arange(SYN_N) + 1.0) * SYN_DELTA_OMEGA
    amp = rng.uniform(0.5, 2.0, M)
    decay = rng.uniform(0.5, 3.0, M)
    pos = np.sort(rng.uniform(0.0, 1.0, M))
    rate = rng.uniform(0.5, 2.0)
    nugget = rng.uniform(0.25, 0.4)
    psd = amp[None, :] / (1.0 + decay[None, :] * w[:, None]) ** 2
    dist = np.abs(pos[:, None] - pos[None, :])
    coh = (1.0 - nugget) * np.exp(-rate * dist[None] * w[:, None, None])
    coh += nugget * np.eye(M)[None]
    return np.sqrt(psd[:, :, None] * psd[:, None, :]) * coh


def synthetic_pair_tensor(S: np.ndarray, v: int, i: int, j: int) -> np.ndarray:
    """Bispectral tensor ``(m, m, m)`` of the stored pair ``(i, j)``, ``i >= j``.

    Bicoherence-normalised, ``b sqrt(S_aa(i+j) S_ll(i) S_nn(j))``, with an
    index-dependent taper and an antisymmetric biphase (zero at ``i == j``).
    """
    rng = np.random.default_rng([0xB15, v])
    beta = rng.uniform(0.2, 0.8)
    d = np.real(np.diagonal(S, axis1=1, axis2=2))
    idx = np.arange(M)
    taper = 1.0 / (1.0 + 0.3 * (idx[:, None, None] + idx[None, :, None] + idx[None, None, :]))
    mag = np.sqrt(d[i + j][:, None, None] * d[i][None, :, None] * d[j][None, None, :])
    w_i, w_j = (i + 1) * SYN_DELTA_OMEGA, (j + 1) * SYN_DELTA_OMEGA
    return SYN_BICOHERENCE * mag * taper * np.exp(1j * beta * (w_i - w_j))


def _row(head: list[str], values: np.ndarray) -> str:
    flat = values.ravel()
    cells = head + [f"{x:.17g}" for z in flat for x in (z.real, z.imag)]
    return ",".join(cells) + "\n"


def write_synthetic_tables(directory: str, v: int) -> None:
    """Spectrum and bispectrum CSVs in the layout of ``srm3.io``.

    Every interaction pair ``i >= j >= 1``, ``i + j <= N - 1`` is listed;
    the reader fills in the mirrored pairs.
    """
    S = synthetic_spectrum(v)
    with open(os.path.join(directory, "spectrum.csv"), "w") as fh:
        for k in range(SYN_N):
            fh.write(_row([str(k)], S[k]))
    with open(os.path.join(directory, "bispectrum.csv"), "w") as fh:
        for k in range(2, SYN_N):
            for j in range(1, k // 2 + 1):
                i = k - j
                fh.write(_row([str(i), str(j)], synthetic_pair_tensor(S, v, i, j)))


def write_config(path: str, config: dict) -> None:
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
