"""Expected values and independent checks on caseq's outputs.

The paper-table values are held here, separately from caseq's own tests.
The spectrum oracle and the Parseval total re-derive the power spectrum
from the documented model (subcarrier n at frequency n*gamma, amplitude
chi[n] exp(-2j pi n alpha gamma) / sqrt(N), rectangular pulse of duration
T = 1 + alpha), so they share no code with caseq.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

CONDITION_A = dict(gamma=2, alpha=Fraction(1, 2))
CONDITION_B = dict(gamma=1, alpha=Fraction(33, 256))

# N -> (min_csd, {(kappa, mode): (ascending factors, size, csd, available)})
FLAT_TABLE = {
    48: (4, {
        (0, "proper"): ((2, 2, 2, 2, 3), 2, 16, 2),
        (1, "proper"): ((2, 2, 3, 4), 6, 12, 6),
        (2, "proper"): ((3, 4, 4), 18, 12, 18),
        (3, "proper"): ((6, 8), 35, 6, 35),
        (3, "near"): ((6, 8), 35, 6, 35),
    }),
    144: (12, {
        (0, "proper"): ((2, 2, 2, 2, 3, 3), 4, 48, 4),
        (1, "proper"): ((2, 2, 3, 3, 4), 12, 36, 12),
        (2, "proper"): ((3, 3, 4, 4), 36, 36, 36),
        (3, "proper"): ((4, 6, 6), 75, 24, 75),
        (3, "near"): ((4, 6, 6), 75, 24, 75),
        (4, "proper"): ((12, 12), 121, 12, 121),
        (4, "near"): ((12, 12), 121, 12, 121),
    }),
    288: (24, {
        (0, "proper"): ((2, 2, 2, 2, 2, 3, 3), 4, 96, 4),
        (1, "proper"): ((2, 2, 2, 3, 3, 4), 12, 72, 12),
        (2, "proper"): ((2, 3, 3, 4, 4), 36, 72, 36),
        (3, "proper"): ((3, 4, 4, 6), 90, 48, 90),
        (3, "near"): ((3, 4, 4, 6), 90, 48, 90),
        (4, "proper"): ((6, 6, 8), 175, 36, 175),
        (4, "near"): ((4, 8, 9), 168, 32, 168),
        (5, "proper"): ((16, 18), 255, 16, 120),
        (5, "near"): ((16, 18), 255, 16, 120),
    }),
}

# N -> (parts, min omega, {kappa: (size, augmented size)},
#       {kappa: per-part ascending factor sets})
CONCAT_TABLE = {
    139: ((50, 45, 44), 3, {0: (10, 20), 1: (30, 60)}, {
        0: [(2, 5, 5), (3, 3, 5), (2, 2, 11)],
        1: [(5, 10), (5, 9), (4, 11)],
    }),
    571: ((225, 196, 150), 4, {0: (32, 64), 1: (80, 160), 2: (126, 252)}, {
        0: [(3, 3, 5, 5), (2, 2, 7, 7), (2, 3, 5, 5)],
        1: [(5, 5, 9), (4, 7, 7), (5, 5, 6)],
        2: [(15, 15), (14, 14), (10, 15)],
    }),
    839: ((396, 243, 200), 5,
          {0: (16, 32), 1: (48, 96), 2: (112, 224), 3: (171, 342)}, {
        0: [(2, 2, 3, 3, 11), (3, 3, 3, 3, 3), (2, 2, 2, 5, 5)],
        1: [(3, 3, 4, 11), (3, 3, 3, 9), (2, 4, 5, 5)],
        2: [(6, 6, 11), (3, 9, 9), (5, 5, 8)],
        3: [(18, 22), (9, 27), (10, 20)],
    }),
    1151: ((468, 440, 243), 5,
           {0: (32, 64), 1: (64, 128), 2: (128, 256), 3: (208, 416)}, {
        0: [(2, 2, 3, 3, 13), (2, 2, 2, 5, 11), (3, 3, 3, 3, 3)],
        1: [(3, 3, 4, 13), (2, 4, 5, 11), (3, 3, 3, 9)],
        2: [(6, 6, 13), (5, 8, 11), (3, 9, 9)],
        3: [(18, 26), (20, 22), (9, 27)],
    }),
}

# The README factorize flow: caseq factorize --n 288 --kappa 5 --min-csd 24
README_FACTORIZE = {"factor_set": [16, 18], "family_size": 255,
                    "family_csd": 16, "available": 120}

CA_TOL = 1e-12
GRAM_TOL = 1e-9
ZAC_RTOL = 1e-9          # times N
ORACLE_RTOL = 1e-9       # relative to the grid's peak power
Z_LIMIT = 5.0
# model draws per SNR behind the p_fid sigma (about 1% relative error on
# the sigma), and the requested members they are spread over
FID_DRAWS = 20000
FID_K_POOL = 64


def q_rows(chi_rows: np.ndarray, gamma: int) -> np.ndarray:
    """Transmitted vectors (-1)^(n gamma) chi[n] / sqrt(N), one per row."""
    n = chi_rows.shape[1]
    signs = np.where((np.arange(n) * gamma) % 2 == 0, 1.0, -1.0)
    return chi_rows * signs / math.sqrt(n)


def spot_gram(chi_rows: np.ndarray, gamma: int, picks) -> float:
    """Largest |G - I| over the Gram rows of the picked members."""
    q = q_rows(chi_rows, gamma)
    g = q[picks].conj() @ q.T
    g[np.arange(len(picks)), picks] -= 1.0
    return float(np.max(np.abs(g)))


def _amplitudes(chi: np.ndarray, alpha_gamma: Fraction) -> np.ndarray:
    idx = np.arange(len(chi), dtype=np.int64)
    frac = (idx * alpha_gamma.numerator) % alpha_gamma.denominator
    return chi / math.sqrt(len(chi)) * np.exp(-2j * np.pi * frac / alpha_gamma.denominator)


def oracle_rel_error(chi: np.ndarray, gamma: int, alpha: Fraction,
                     norm_freqs: np.ndarray, power: np.ndarray,
                     picks, dps: int = 30) -> float:
    """Largest |power - exact| / max(power) at the picked grid indices.

    The exact value sums a_n * (1 - exp(-2j pi v T)) / (2j pi v), the
    transform of the duration-T pulse at offset v = f - n gamma, in
    mpmath at ``dps`` digits from the double-precision inputs.
    """
    n = len(chi)
    ag = alpha * gamma
    bandwidth = gamma * n
    center = 0.5 * (0.0 + (n - 1) * gamma)
    peak = float(np.max(power))
    worst = 0.0
    with mpmath.workdps(dps):
        pulse = mpmath.mpf(alpha.numerator) / alpha.denominator + 1
        amps = []
        for k in range(n):
            phase = mpmath.mpf(-2 * ((k * ag.numerator) % ag.denominator)) / ag.denominator
            amps.append(mpmath.mpc(float(chi[k].real), float(chi[k].imag))
                        * mpmath.expjpi(phase) / mpmath.sqrt(n))
        for i in picks:
            f = mpmath.mpf(float(center + norm_freqs[i] * bandwidth))
            acc = mpmath.mpc(0)
            for k in range(n):
                v = f - k * gamma
                if v == 0:
                    acc += amps[k] * pulse
                else:
                    acc += amps[k] * (1 - mpmath.expjpi(-2 * v * pulse)) / (2j * mpmath.pi * v)
            exact = float(abs(acc) ** 2)
            worst = max(worst, abs(float(power[i]) - exact) / peak)
    return worst


def parseval_total(chi: np.ndarray, gamma: int, alpha: Fraction) -> float:
    """Exact integral of the power spectrum over all frequencies, a^H K a.

    K[n, m] = int_0^T exp(2j pi (x_m - x_n) t) dt with x_n = n gamma.
    """
    a = _amplitudes(chi, alpha * gamma)
    pulse = 1.0 + float(alpha)
    x = np.arange(len(chi)) * float(gamma)
    delta = x[None, :] - x[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(delta == 0, pulse,
                     (np.exp(2j * np.pi * delta * pulse) - 1.0) / (2j * np.pi * delta))
    return float(np.real(a.conj() @ k @ a))


def z_scores(result) -> list[tuple[float, str, float]]:
    """(snr_db, metric, z) with z = (MC - closed form) / reported sigma."""
    out = []
    for entry in result.per_snr:
        for metric, (estimate, sigma) in entry.mc.items():
            cf = entry.closed_form[metric]
            out.append((entry.snr_db, metric, (estimate - cf) / sigma))
    return out


def fid_trial_std(q: np.ndarray, delays_s, powers, delta_f_hz: float,
                  snrs_db, p_fa_target: float, rng: np.random.Generator) -> dict:
    """Per-trial standard deviation of the false-identification fraction.

    In one request trial the J - 1 false-identification events share the
    channel draw, so they are not independent and the binomial sigma over
    trials * (J - 1) events understates the error of the Monte Carlo
    p_fid.  This samples the correlator outputs of the simulator's model
    directly, y_i = sum_l g_l C_l[k, i] + w_i with
    C_l[k, i] = sqrt(N) sum_n q_k[n] exp(-2j pi df n tau_l) conj(q_i[n]),
    g_l ~ CN(0, p_l) and w ~ CN(0, M / snr), M = conj(Q) Q^T, and returns
    {snr_db: std of #{i != k : |y_i|^2 > beta} / (J - 1)}.  The requested
    index k is drawn from a pool of at most ``FID_K_POOL`` members.
    """
    j, n = q.shape
    pool = np.sort(rng.choice(j, size=min(j, FID_K_POOL), replace=False))
    idx = np.arange(n)
    leak = np.stack([math.sqrt(n * p) * (q[pool] * np.exp(-2j * np.pi * delta_f_hz * d * idx))
                     @ q.conj().T for d, p in zip(delays_s, powers)], axis=1)
    gram = q.conj() @ q.T
    white = np.allclose(gram, np.eye(j), rtol=0.0, atol=1e-9)
    chol = None if white else np.linalg.cholesky(gram)
    phis = [10.0 ** (snr_db / 10.0) for snr_db in snrs_db]
    counts = [[] for _ in phis]
    for start in range(0, FID_DRAWS, 1000):
        # one draw of k, tap gains and unit noise serves every SNR
        b = min(1000, FID_DRAWS - start)
        which = rng.integers(0, len(pool), size=b)
        gains = (rng.standard_normal((b, len(powers)))
                 + 1j * rng.standard_normal((b, len(powers)))) / math.sqrt(2.0)
        signal = np.empty((b, j), dtype=complex)
        for p in range(len(pool)):
            signal[which == p] = gains[which == p] @ leak[p]
        noise = (rng.standard_normal((b, j)) + 1j * rng.standard_normal((b, j))) / math.sqrt(2.0)
        if not white:
            noise = noise @ chol.T
        for phi, tally in zip(phis, counts):
            hits = np.abs(signal + noise / math.sqrt(phi)) ** 2 > -math.log(p_fa_target) / phi
            hits[np.arange(b), pool[which]] = False
            tally.append(hits.sum(axis=1))
    out = {snr_db: float(np.std(np.concatenate(tally), ddof=1)) / (j - 1)
           for snr_db, tally in zip(snrs_db, counts)}
    return out
