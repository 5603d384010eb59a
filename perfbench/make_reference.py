"""Compute the reference outputs the benchmark checks against.

Run once per reference commit, from the root of a checkout::

    python3 perfbench/make_reference.py

For every workload and every input variant it stores the report targets
(from the term set), the target RMS, the first samples of realization 0 by
direct summation, and the pure-split headroom (smallest eigenvalue of the
pure spectrum relative to the spectrum's trace, over all bins), which must be
positive: the split is feasible for every seed the benchmark can use.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import inputs
from run import HERE, SRC, WORK, git_commit

sys.path.insert(0, SRC)

from srm3.config import parse_config  # noqa: E402
from srm3.estimators import build_terms, ensemble_moments, standard_moment_labels  # noqa: E402
from srm3.pure import compute_pure_multivariate  # noqa: E402
from srm3.simulate import (  # noqa: E402
    Method,
    SampleRecord,
    SamplingPlan,
    draw_phases,
    synthesize_direct,
)
from srm3.workbench import verify_ergodic_identities  # noqa: E402

#: Samples of realization 0 compared with the direct sum.
FIRST_SAMPLES = 16
REF_WORK = os.path.join(WORK, "reference")


def _config(config: dict):
    return parse_config(json.dumps(config), base_dir=REF_WORK)


def _terms(config):
    method = Method.THIRD_ORDER_MV if config.method is Method.THIRD_ORDER_MV_FFT else config.method
    return build_terms(config.spectrum, config.bispectrum, method)


def _targets(config, terms) -> dict:
    """Report targets, labelled exactly as ``report.json`` labels them."""
    m = config.grid.m
    dummy = SampleRecord(np.zeros((m, 1)), 1.0, config.method, 0, 0)
    report = ensemble_moments([dummy], standard_moment_labels(m), terms)
    return {row.label: row.target for row in report.rows}


def _first_samples(config, terms, seed: int) -> list:
    plan = SamplingPlan.for_grid(config.grid, config.m_f, config.blocks)
    short = SamplingPlan(plan.delta_t, FIRST_SAMPLES, plan.m_f, plan.blocks)
    values = synthesize_direct(terms, draw_phases(seed, 0, config.grid), short)
    return values.tolist()


def _headroom(config) -> float:
    if config.method is Method.SECOND_ORDER:
        S_p = config.spectrum.values
    else:
        S_p = compute_pure_multivariate(config.spectrum, config.bispectrum).S_p
    sym = 0.5 * (S_p + np.conj(np.swapaxes(S_p, 1, 2)))
    traces = np.trace(config.spectrum.values, axis1=1, axis2=2).real
    return float(np.min(np.linalg.eigvalsh(sym)[:, 0] / traces))


def _rms(terms, m) -> list:
    return [terms.target_rms(a) for a in range(m)]


def fixed_target_reference(make_config) -> dict:
    """Workloads whose targets do not depend on the variant."""
    config = _config(make_config(0, 1))
    terms = _terms(config)
    headroom = _headroom(config)
    assert headroom > 0, headroom
    return {
        "targets": _targets(config, terms),
        "rms": _rms(terms, config.grid.m),
        "headroom": headroom,
        "variants": [
            {"first": _first_samples(config, terms, v)}
            for v in range(inputs.POOL)
        ],
    }


def synthetic_reference() -> dict:
    variants = []
    for v in range(inputs.POOL):
        inputs.write_synthetic_tables(REF_WORK, v)
        config = _config(inputs.synthetic_config(v, 1))
        terms = _terms(config)
        headroom = _headroom(config)
        assert headroom > 0, (v, headroom)
        variants.append(
            {
                "targets": _targets(config, terms),
                "rms": _rms(terms, config.grid.m),
                "headroom": headroom,
                "first": _first_samples(config, terms, v),
            }
        )
        print(f"synthetic-large variant {v}: headroom {headroom:.3f}", flush=True)
    return {"variants": variants}


def verify_reference() -> dict:
    config = _config(inputs.wind_config(0, 1))
    report = verify_ergodic_identities(config, [0])
    return {
        "targets": {r.label.split(": ", 1)[1]: r.target for r in report.rows},
        "resonant_collisions": report.metadata["resonant_collisions"],
        "triple_resonances": report.metadata["triple_resonances"],
        "headroom": _headroom(config),
    }


def main() -> int:
    os.makedirs(REF_WORK, exist_ok=True)
    out_dir = os.path.join(HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    builders = {
        "wind-ensemble": lambda: fixed_target_reference(inputs.wind_config),
        "gaussian-long": lambda: fixed_target_reference(inputs.gaussian_config),
        "wind-verify": verify_reference,
        "synthetic-large": synthetic_reference,
    }
    only = sys.argv[1:] or list(builders)
    for name in only:
        ref = builders[name]()
        ref = {"commit": git_commit(), "pool": inputs.POOL, "first_samples": FIRST_SAMPLES, **ref}
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote reference for {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
