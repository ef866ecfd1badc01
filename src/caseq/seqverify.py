"""Independent property checks on constructed sequences and families.

Everything here re-derives properties from the raw sequence values:
constant amplitude, zero periodic autocorrelation of the inverse DFT,
pairwise orthogonality, and the sidelobe-decay order measured as the
number of leading vanishing index-power moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .seqforge import CaSequence, Family

#: moments are called zero when below this times sum(n^beta)
MOMENT_RTOL = 1e-8
DEFAULT_BETA_CAP = 6


@dataclass
class VerifyReport:
    """Aggregate metrics for one family (or a single sequence)."""

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


def check_ca(seq: CaSequence) -> float:
    """Largest deviation of |chi[n]| from one."""
    return float(np.max(np.abs(np.abs(seq.chi) - 1.0)))


def check_zac(seq: CaSequence) -> float:
    """Largest off-peak magnitude of the periodic autocorrelation of the
    inverse DFT of q."""
    q_t = np.fft.ifft(seq.q) * math.sqrt(seq.n)  # unitary inverse DFT
    corr = np.fft.ifft(np.abs(np.fft.fft(q_t)) ** 2)
    return float(np.max(np.abs(corr[1:])))


def _moment(seq: CaSequence, beta: int, twisted: bool) -> complex:
    """sum_n w[n] n^beta chi[n], w = exp(-2j pi n alpha gamma) when twisted.

    Accumulated with exact partial sums of the real and imaginary parts;
    n^beta reaches ~1e18 at desk scale, so the (relative) rounding of the
    products is far below the relative tolerance used by callers.
    """
    n = np.arange(seq.n, dtype=np.float64)
    vals = (n ** beta) * seq.chi
    if twisted:
        ag = seq.cfg.alpha_gamma
        idx = np.arange(seq.n, dtype=np.int64)
        frac = (idx * ag.numerator) % ag.denominator
        vals = vals * np.exp(-2j * np.pi * (frac / ag.denominator))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


@functools.cache
def moment_tolerance(n: int, beta: int) -> float:
    """MOMENT_RTOL * sum_{i<n} i^beta, summed once per (n, beta)."""
    return MOMENT_RTOL * float(sum(float(i) ** beta for i in range(n)))


def measure_sd_order(seq: CaSequence, beta_cap: int = DEFAULT_BETA_CAP) -> tuple[int, bool, float]:
    """Measured decay order: the largest I <= beta_cap with all moments of
    exponent < I vanishing (both plain and twisted under a fractional
    alpha*gamma).

    Returns (order, capped, first_nonvanishing_magnitude); capped means
    every tested exponent vanished, so the true order may exceed the cap.
    """
    if beta_cap > 8:
        raise ValueError("beta_cap above 8 is numerically unreliable")
    twisted = seq.cfg.condition == "B"
    first_mag = 0.0
    for beta in range(beta_cap + 1):
        tol = moment_tolerance(seq.n, beta)
        mags = [abs(_moment(seq, beta, twisted=False))]
        if twisted:
            mags.append(abs(_moment(seq, beta, twisted=True)))
        if max(mags) > tol:
            return beta, False, max(mags)
        first_mag = max(mags)
    return beta_cap + 1, True, first_mag


def gram_matrix(family: Family) -> np.ndarray:
    q = family.q_matrix()
    return q.conj() @ q.T


def max_offdiag(gram: np.ndarray) -> float:
    g = np.abs(gram.copy())
    np.fill_diagonal(g, 0.0)
    return float(np.max(g)) if g.size else 0.0


def check_family(family: Family, beta_cap: int = DEFAULT_BETA_CAP) -> VerifyReport:
    """Run the amplitude, autocorrelation, Gram, and moment checks over all
    members; the reported order is the family minimum."""
    ca = max(check_ca(s) for s in family.sequences)
    zac = max(check_zac(s) for s in family.sequences)
    gram = max_offdiag(gram_matrix(family)) if len(family) > 1 else None
    orders = []
    capped_any = False
    for s in family.sequences:
        order, capped, _ = measure_sd_order(s, beta_cap)
        orders.append(order)
        capped_any = capped_any or capped
    return VerifyReport(
        ca_max_dev=ca,
        zac_max_offpeak=zac,
        gram_max_offdiag=gram,
        measured_sd_order=min(orders),
        sd_order_capped=capped_any,
        condition=family.cfg.condition,
        size=len(family),
        tolerances={"moment_rtol": MOMENT_RTOL, "beta_cap": beta_cap},
    )
