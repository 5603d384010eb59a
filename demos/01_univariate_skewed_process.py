"""Synthesize a skewed (third-order) scalar process and verify it exactly.

A band-limited power spectrum plus two bispectral entries -- one real on the
equal-frequency diagonal, one complex off it -- define the target.  The
script splits the spectrum into pure-wave and interaction parts, draws one
realization over the fundamental period, and checks that the record's time
averages hit the discrete targets at machine precision, for any seed.
"""

import numpy as np

from srm3 import (
    CrossBispectrum,
    CrossSpectrum,
    FrequencyGrid,
    Method,
    OffsetRule,
    SamplingPlan,
    Synthesizer,
    compute_pure_multivariate,
    temporal_cross_correlation,
    temporal_mean,
    temporal_third_moment,
)

# --- the target -------------------------------------------------------
N, delta_omega = 16, 0.2
grid = FrequencyGrid(1, N, delta_omega, OffsetRule.UNIVARIATE_ERGODIC)

spectrum = np.zeros(N)
spectrum[[4, 5, 8, 9]] = [1.0, 1.2, 0.8, 0.9]
S = CrossSpectrum(grid, spectrum.reshape(N, 1, 1).astype(complex))

bispectrum = np.zeros((N, N, 1, 1, 1), dtype=complex)
bispectrum[4, 4] = 1.2  # equal-frequency entries are real
bispectrum[5, 4] = 0.7 + 0.5j  # biphase enters the quadratic wave
bispectrum[4, 5] = np.conj(bispectrum[5, 4])
B = CrossBispectrum(grid, bispectrum)

# --- pure/interaction split ------------------------------------------
pure = compute_pure_multivariate(S, B)  # at m = 1, the scalar recursion
print("pure spectrum at the interaction sinks (bins 8, 9):")
print("  S   =", spectrum[[8, 9]])
print("  S_p =", pure.S_p[[8, 9], 0, 0].real.round(6))
print("  S_I =", pure.S_I[[8, 9], 0, 0].real.round(6), "(energy the quadratic waves add back)")

# --- one realization over the fundamental period ----------------------
plan = SamplingPlan.for_grid(grid, m_f=4 * N)
print(f"\nfundamental period: {grid.fundamental_period:.3f} s "
      f"({plan.n_samples} samples at dt = {plan.delta_t:.4f} s)")

synth = Synthesizer(S, B, Method.THIRD_ORDER_UV, plan)  # compile once, draw any seed
seed = 2024
record = synth.record(seed, 0)
print(f"record rms: {record.rms(0):.4f}")

# --- single-record closure against the discrete targets ---------------
terms = synth.terms
assert terms.resonant_collisions() == []
dt = plan.delta_t

print("\nsingle-record time averages vs discrete targets (one seed!):")
print(f"  mean: {temporal_mean(record, 0):+.2e} (target 0)")
for lag in (0, 7, 31):
    est = temporal_cross_correlation(record, 0, 0, lag, grid)
    tgt = terms.target_second(0, 0, lag * dt)
    print(f"  <f f> lag {lag:2d}: {est:+.10f} vs {tgt:+.10f}  (rel {abs(est-tgt)/abs(tgt):.1e})")
for l1, l2 in ((0, 0), (7, 3), (31, 11)):
    est = temporal_third_moment(record, 0, 0, 0, l1, l2, grid)
    tgt = terms.target_third(0, 0, 0, l1 * dt, l2 * dt)
    print(f"  <f f f> lags ({l1},{l2}): {est:+.10f} vs {tgt:+.10f}")

skew = temporal_third_moment(record, 0, 0, 0, 0, 0) / record.rms(0) ** 3
print(f"\nskewness of the record: {skew:+.4f} (a second-order record would give 0)")
