"""Independent property checks on constructed families.

Everything here re-derives properties from the raw sequence values:
constant amplitude, zero periodic autocorrelation of the inverse DFT,
pairwise orthogonality, and the sidelobe-decay order measured as the
number of leading vanishing index-power moments.  Each check takes rows of
the J x N member matrix in bulk: ifft(|chi|^2) by one rfft per row, all
moments by products chi @ P^T with P[beta, n] = n^beta over column blocks of
2^16 indices, and the Gram in row blocks over its upper triangle.
amplitude_checks and sd_orders return per-row results, which check_family
reduces to one report.
For unit-modulus chi a moment's rounding error is at most about
N u sum n^beta (u = 2^-53), which grows with the N in hand: 1.3e-13 sum n^beta
at N = 1151, 1.1e-10 at N = 10^6 and 7.5e-9 at the largest admitted N = 2^26,
only 1.3 times under MOMENT_RTOL = 1e-8.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .seqforge import MAX_DENSE_TABLE_BYTES, DomainError, Family, WaveformConfig

#: moments are called zero when below this times sum(n^beta)
MOMENT_RTOL = 1e-8
DEFAULT_BETA_CAP = 6
#: column block of the moment sums: N <= 2^16 takes one block
MOMENT_COLUMNS = 2 ** 16


@dataclass
class VerifyReport:
    """Aggregate metrics for one family."""

    ca_max_dev: float
    zac_max_offpeak: float
    gram_max_offdiag: float | None
    measured_sd_order: int
    sd_order_capped: bool
    condition: str
    size: int
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def amplitude_checks(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the largest | |chi| - 1 |, and of ifft(|chi|^2) off its peak."""
    mag = np.abs(chi)
    corr = np.abs(np.fft.rfft(mag * mag, axis=1)[:, 1:])
    return np.abs(mag - 1.0).max(axis=1), corr.max(axis=1) / chi.shape[1]


@functools.cache
def moment_tolerance(n: int, beta: int) -> float:
    """MOMENT_RTOL * sum_{i<n} i^beta, the sum S_beta exact in integers from
    S_b = (n^(b+1) - sum_{j<b} C(b+1, j) S_j) / (b+1)."""
    sums = []
    for b in range(beta + 1):
        lower = sum(math.comb(b + 1, j) * s for j, s in enumerate(sums))
        sums.append((n ** (b + 1) - lower) // (b + 1))
    return MOMENT_RTOL * sums[-1]


def _check_beta_cap(beta_cap: int):
    if not 0 <= beta_cap <= 8:  # above 8 the float verdict's margin runs out
        raise DomainError(f"beta_cap must lie in [0, 8], got {beta_cap}")


def _moments(chi: np.ndarray, cfg: WaveformConfig, beta_cap: int) -> np.ndarray:
    """Per row sum_n n^beta chi[n], and under condition B the same times
    w[n] = exp(-2j pi n alpha gamma): shape rows x (1 or 2) x (beta_cap + 1).
    The sums run over column blocks of MOMENT_COLUMNS indices, each block's
    powers and twist formed for its own indices only."""
    n = chi.shape[1]

    def block(lo: int) -> np.ndarray:
        hi = min(lo + MOMENT_COLUMNS, n)
        powers = np.arange(lo, hi, dtype=np.float64) ** np.arange(beta_cap + 1)[:, None]
        if cfg.condition == "B":
            powers = np.concatenate([powers, powers * cfg.tone_twist(hi, lo)])
        return chi[:, lo:hi] @ powers.T

    total = functools.reduce(np.add, map(block, range(0, n, MOMENT_COLUMNS)))
    return total.reshape(len(chi), -1, beta_cap + 1)


def sd_orders(chi: np.ndarray, cfg: WaveformConfig, beta_cap: int):
    """Per row (order, capped, magnitude): the first exponent whose moment,
    plain or twisted under a fractional alpha*gamma, does not vanish, and its
    magnitude.  capped: none up to beta_cap did; order is beta_cap + 1,
    magnitude at beta_cap."""
    _check_beta_cap(beta_cap)
    mags = np.abs(_moments(chi, cfg, beta_cap)).max(axis=1)
    tol = np.array([moment_tolerance(chi.shape[1], b) for b in range(beta_cap + 1)])
    fails = mags > tol
    capped = ~fails.any(axis=1)
    orders = np.where(capped, beta_cap + 1, fails.argmax(axis=1))
    return orders, capped, mags[np.arange(len(mags)), np.minimum(orders, beta_cap)]


def gram_matrix(family: Family, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows lo:hi of the Gram against the members from lo on: G[lo + i, lo + k];
    the defaults give the full J x J Gram."""
    chi = family.chi_matrix()  # conj(q_i) q_k = conj(chi_i) chi_k / N: the signs cancel
    return chi[lo:hi].conj() @ chi[lo:].T / family.n


def max_offdiag(gram: np.ndarray) -> float:
    g = np.abs(gram)
    np.fill_diagonal(g, 0.0)
    return float(np.max(g)) if g.size else 0.0


def check_family(family: Family, beta_cap: int = DEFAULT_BETA_CAP) -> VerifyReport:
    """Every check over all members on the family's own chi stack, in blocks of
    about 2^16 Gram entries: each block's Gram rows run against the members from
    its first row on, so every pair i < k is met once and no J x J Gram is held.
    The order is the family minimum.  More than MAX_DENSE_TABLE_BYTES / 16 pairs
    (J^2, one complex entry each) are refused before any block is formed."""
    _check_beta_cap(beta_cap)
    j = len(family)
    if 16 * j ** 2 > MAX_DENSE_TABLE_BYTES:
        raise DomainError(
            f"{j} {family.kind} sequences make {j ** 2} pairs, above the limit of "
            f"{MAX_DENSE_TABLE_BYTES // 16} ({MAX_DENSE_TABLE_BYTES / 2 ** 30:g} GiB "
            f"of complex Gram entries)")
    chi = family.chi_matrix()
    rows = max(1, 2 ** 16 // j)  # as in seqforge._phase_rows: transients near 1 MiB
    blocks = [(lo, lo + rows) for lo in range(0, j, rows)]
    gram = max(max_offdiag(gram_matrix(family, lo, hi)) for lo, hi in blocks) if j > 1 else None
    ca, zac = map(np.concatenate, zip(*(amplitude_checks(chi[lo:hi]) for lo, hi in blocks)))
    orders, capped, _ = sd_orders(chi, family.cfg, beta_cap)
    return VerifyReport(
        ca_max_dev=float(ca.max()),
        zac_max_offpeak=float(zac.max()),
        gram_max_offdiag=gram,
        measured_sd_order=int(orders.min()),
        sd_order_capped=bool(capped.any()),
        condition=family.cfg.condition,
        size=j,
        tolerances={"moment_rtol": MOMENT_RTOL, "beta_cap": beta_cap},
    )
