"""Random-access channel-identification simulator.

One-shot model: a terminal sends the k-th of J identification sequences
over a tapped-delay-line Rayleigh channel; the receiver correlates the
N-tone frequency-domain observation against all J candidates and
thresholds the squared magnitudes.  The correlator outputs are linear in
the tap gains and the noise, y = sum_l g_l C_l[k, :] + w, so the Monte
Carlo samples these J numbers directly from the leakage tensor C_l and
coloured J-dimensional noise (white when the candidates are orthogonal),
and the closed-form false-alarm, false-identification and
correct-identification probabilities read their variances from the same
tensor.  The tensor is held as a lookup, C_l[k, i] = table[l, index[k, i]]:
for a flat phase-assigned family the table has one entry per tone and tap,
built from the family's recipe, and for every other family it is the dense
tensor.  A table of at most 2J columns is multiplied by the tap gains whole;
a wider one is gathered tap by tap.  Gains and request noise are complex
Gaussians from normal draws.  Estimates come with one-sigma half-widths:
z=1 Wilson intervals for p_fa and p_c, and the per-trial standard error
for p_fid, whose J - 1 events in a trial share one channel draw.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .factorlab import DomainError
from .seqforge import MAX_DENSE_TABLE_BYTES, Family, _phase_rows

#: Monte Carlo batch size; tallies are merged per batch with a batch-derived
#: substream, so results do not depend on how batches are scheduled.
BATCH = 4096


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped-delay-line profile: strictly increasing delays, unit total power."""

    name: str
    delays_s: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        if len(self.delays_s) != len(self.powers):
            raise DomainError("delay/power length mismatch")
        if not all(0 <= d < math.inf for d in self.delays_s):
            raise DomainError(f"tap delays must be finite and non-negative, got {self.delays_s}")
        if not all(0 <= p < math.inf for p in self.powers):
            raise DomainError(f"tap powers must be finite and non-negative, got {self.powers}")
        if list(self.delays_s) != sorted(set(self.delays_s)):
            raise DomainError("delays must be strictly increasing")
        if abs(sum(self.powers) - 1.0) > 1e-9:
            raise DomainError(f"tap powers sum to {sum(self.powers)}, not 1")

    @property
    def sigma_rms_s(self) -> float:
        p = np.asarray(self.powers)
        d = np.asarray(self.delays_s)
        mean = float(p @ d)
        return math.sqrt(max(float(p @ d**2) - mean * mean, 0.0))

    @classmethod
    def flat_fading(cls) -> "ChannelProfile":
        return cls("flat-fading", (0.0,), (1.0,))

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelProfile":
        try:
            name = data["name"]
            delays = tuple(float(t["delay_ns"]) * 1e-9 for t in data["taps"])
            powers = np.array([10.0 ** (float(t["power_db"]) / 10.0) for t in data["taps"]])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise DomainError(
                f"profile needs a name and taps [{{delay_ns, power_db}}, ...]: {exc!r}"
            ) from exc
        if not (np.isfinite(powers).all() and powers.sum() > 0):
            raise DomainError(f"linear tap powers {powers.tolist()} need finite values, sum > 0")
        if data.get("normalize", True):
            powers = powers / powers.sum()
        return cls(name, delays, tuple(float(p) for p in powers))

    @classmethod
    def load(cls, path: str | Path) -> "ChannelProfile":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def shipped(cls, name: str) -> "ChannelProfile":
        """One of the packaged synthetic short-delay profiles."""
        fname = {"umi": "umi_sc_synth_65ns.json", "ind": "ind_synth_20ns.json"}.get(
            name, name)
        ref = importlib.resources.files("caseq") / "profiles" / fname
        return cls.from_dict(json.loads(ref.read_text()))


@dataclass
class RaSimConfig:
    family: Family
    snr_db_list: Sequence[float]
    trials: int
    seed: int
    profile: ChannelProfile
    #: number of identification sequences; drawn from the family at random
    #: (with the run seed) when smaller than the family
    j_sequences: int | None = None
    #: threshold rule: target false-alarm probability (beta = -ln(pfa)/phi)...
    p_fa_target: float | None = None
    #: ...or a fixed threshold value
    beta: float | None = None
    delta_f_hz: float = 1250.0

    def __post_init__(self):
        if (self.p_fa_target is None) == (self.beta is None):
            raise DomainError("set exactly one of p_fa_target or beta")
        if self.j_sequences is None:
            self.j_sequences = len(self.family)
        if not 2 <= self.j_sequences <= len(self.family):
            raise DomainError(f"identification sequences must number 2 to the family "
                              f"size {len(self.family)}, got {self.j_sequences}")
        if self.trials < 2:
            raise DomainError("trials must be >= 2: the p_fid sigma is a per-trial spread")
        if self.p_fa_target is not None and not 0.0 < self.p_fa_target < 1.0:
            raise DomainError(f"p_fa_target must be in (0, 1), got {self.p_fa_target}")
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be a finite positive threshold, got {self.beta}")
        if not all(math.isfinite(s) for s in self.snr_db_list):
            raise DomainError(f"SNRs must be finite, got {list(self.snr_db_list)}")
        if not (math.isfinite(self.delta_f_hz) and self.delta_f_hz > 0.0):
            raise DomainError(f"delta_f_hz must be finite and positive, got {self.delta_f_hz}")

    def beta_at(self, phi: float) -> float:
        if self.beta is not None:
            return self.beta
        return -math.log(self.p_fa_target) / phi


@dataclass
class RaSnrResult:
    snr_db: float
    beta: float
    mc: dict            # metric -> (estimate, one-sigma half-width)
    closed_form: dict   # metric -> value


@dataclass
class RaResult:
    config_echo: dict
    per_snr: list[RaSnrResult]
    sigma_fie_max: float
    sigma_fie_mean: float
    sigma_c: float


def _exponential(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Exponential draws of the given mean, -variance log(1 - u), one uniform
    each: the law of |w|^2 for w ~ CN(0, variance)."""
    x = rng.random(shape)
    np.log1p(np.negative(x, out=x), out=x)
    x *= -variance
    return x


def _cscg(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussians: real and imaginary parts are
    standard normals scaled by sqrt(variance / 2), drawn interleaved into one
    float array and viewed as complex."""
    w = rng.standard_normal((*np.atleast_1d(shape), 2))
    w *= math.sqrt(variance / 2.0)
    return w.view(complex)[..., 0]


def _batch_rng(seed: int, label: int, batch: int) -> np.random.Generator:
    # Philox keys are two 64-bit words: (seed, substream) with the substream
    # packing the per-SNR label and the batch index
    return np.random.Generator(np.random.Philox(key=[seed, (label << 32) | batch]))


def _tap_phases(n: int, profile: ChannelProfile, delta_f_hz: float) -> np.ndarray:
    """sqrt(N) exp(-2j pi df n tau_l), tap l's channel over the N tones as the
    correlators pick it up (L x N)."""
    idx = np.arange(n)
    return np.array([math.sqrt(n) * np.exp(-2j * np.pi * delta_f_hz * delay * idx)
                     for delay in profile.delays_s])


def _leakage(q_matrix: np.ndarray, profile: ChannelProfile,
             delta_f_hz: float) -> np.ndarray:
    """Leakage tensor of any candidate set by dense products (L x J x J).

    C_l[k, i] = sqrt(N) sum_n q_k[n] exp(-2j pi df n tau_l) conj(q_i[n]) is
    what the i-th correlator picks up through tap l when q_k is sent.
    """
    q_h = q_matrix.conj().T
    tensor = np.empty((len(profile.delays_s), len(q_matrix), len(q_matrix)), dtype=complex)
    for c, ph in zip(tensor, _tap_phases(q_matrix.shape[1], profile, delta_f_hz)):
        np.matmul(q_matrix * ph, q_h, out=c)
    return tensor


@dataclass(frozen=True)
class _LeakageTables:
    """The leakage tensor of the picked members as a lookup,
    C_l[k, i] = table[l, index[k, i]], and the `_noise_colour` of their Gram
    matrix M = conj(Q) Q^T (None for white correlator noise)."""

    table: np.ndarray   # L x W
    index: np.ndarray   # J x J, into the W columns
    colour: np.ndarray | None
    source: str         # "recipe" or "dense"


def _recipe_tables(family: Family, pick: np.ndarray, profile: ChannelProfile,
                   delta_f_hz: float) -> _LeakageTables:
    """Tables of a flat phase-assigned family from its factor set and nu.

    q_k conj(q_i) = N^-1 exp(2j pi sum_m (nu_km - nu_im) l_m / A_m): the sign
    and the condition-B twist cancel.  So C_l[k, i] = G_l[d], where G_l is
    sqrt(N) times the ifftn of tap l's phases over the mixed-radix digits
    and d = sum_m ((nu_km - nu_im) mod A_m) phi_m, phi_m = prod(factors[:m]):
    an L x N table.  M[i, k] is 1 where d = 0 and 0 elsewhere, the identity
    for distinct nu.  The picked rows are first checked against the recipe,
    at O(J N), so a family whose rows and meta disagree is refused rather
    than simulated under the wrong model.
    """
    factors, nus = family.meta["factor_set"], family.meta["nu_vectors"]
    nu = np.array([nus[p] for p in pick])
    rows = np.array([family.sequences[p].chi for p in pick])
    rebuilt = _phase_rows(factors, nu, family.cfg)
    if rows.shape != rebuilt.shape or not np.abs(rows - rebuilt).max() <= 1e-12:
        raise DomainError(f"{family.kind} family rows do not match the recipe in its meta")
    index = np.zeros((len(pick), len(pick)), dtype=np.intp)
    for col, a, w in zip(nu.T, factors, np.cumprod([1, *factors[:-1]])):
        index += ((col[:, None] - col[None, :]) % a) * w
    # n = sum_m l_m phi_m puts digit l_0 on the fastest axis: factors reversed
    phases = _tap_phases(family.n, profile, delta_f_hz).reshape(-1, *factors[::-1])
    table = np.fft.ifftn(phases, axes=range(1, len(factors) + 1)).reshape(-1, family.n)
    return _LeakageTables(table, index, _noise_colour((index == 0).astype(float)), "recipe")


def _dense_tables(q_matrix: np.ndarray, profile: ChannelProfile,
                  delta_f_hz: float) -> _LeakageTables:
    """Tables of any candidate set: the `_leakage` tensor, one row per tap,
    at index[k, i] = k J + i."""
    j = len(q_matrix)
    return _LeakageTables(_leakage(q_matrix, profile, delta_f_hz).reshape(-1, j * j),
                          np.arange(j * j).reshape(j, j),
                          _noise_colour(q_matrix.conj() @ q_matrix.T), "dense")


def _leakage_tables(family: Family, pick: np.ndarray, profile: ChannelProfile,
                    delta_f_hz: float) -> _LeakageTables:
    """Tables of the picked members: from the recipe of a flat family that
    carries one (factor_set and nu_vectors in its meta), dense otherwise."""
    if "factor_set" in family.meta and "nu_vectors" in family.meta:
        return _recipe_tables(family, pick, profile, delta_f_hz)
    j = len(pick)
    need = (16 * len(profile.delays_s) + 8) * j * j
    if need > MAX_DENSE_TABLE_BYTES:
        raise DomainError(
            f"{j} {family.kind} sequences need {need / 2 ** 30:.1f} GiB of dense leakage "
            f"tables, above the limit of {MAX_DENSE_TABLE_BYTES / 2 ** 30:g} GiB")
    return _dense_tables(family.q_matrix()[pick], profile, delta_f_hz)


def _variances(tables: _LeakageTables, powers: Sequence[float]) -> tuple[np.ndarray, float]:
    """The leakage variances the closed forms read.

    With s = sum_l p_l |table_l|^2, sigma_fie[i, k] = sum_l p_l |C_l[k, i]|^2
    = s[index[k, i]] with a zero diagonal, and sigma_c = sum_l p_l |C_l[k, k]|^2
    averaged over k; every k of a constant-amplitude family gives
    sigma_c = (1/N) sum_l p_l |sum_n exp(-2j pi df n tau_l)|^2.
    """
    s = np.zeros(tables.table.shape[1])
    for row, p in zip(tables.table, powers):
        s += p * np.abs(row) ** 2
    sigma_fie = s[tables.index].T
    np.fill_diagonal(sigma_fie, 0.0)
    return sigma_fie, float(np.mean(s[np.diagonal(tables.index)]))


def _closed_forms(sigma_fie: np.ndarray, sigma_c: float, beta: float,
                  phi: float) -> dict:
    """Exact p_fa, p_fid (per requested index and mean) and p_c for the
    exponential correlator statistics with the given leakage variances."""
    j = sigma_fie.shape[0]
    # P(|y_i|^2 > beta) for every i != k at once; column k averages over i
    p_false = np.exp(-beta * phi / (1.0 + phi * sigma_fie),
                     where=~np.eye(j, dtype=bool), out=np.zeros((j, j)))
    per_k = p_false.sum(axis=0) / (j - 1)
    return {
        "p_fa": math.exp(-beta * phi),
        "p_fid_per_k": per_k.tolist(),
        "p_fid": float(np.mean(per_k)),
        "p_c": math.exp(-beta * phi / (1.0 + phi * sigma_c)),
    }


def _fie_stats(sigma_fie: np.ndarray) -> tuple[float, float]:
    """Largest and mean off-diagonal leakage variance."""
    off = sigma_fie[~np.eye(sigma_fie.shape[0], dtype=bool)]
    return (float(off.max()), float(off.mean())) if off.size else (0.0, 0.0)


def _noise_colour(gram: np.ndarray) -> np.ndarray | None:
    """A with A^T conj(A) = M, the Gram matrix conj(Q) Q^T, or None when M
    is the identity to 1e-9 (orthogonal rows: white correlator noise).

    White J-dimensional noise times A has covariance E[w_i conj(w_j)] =
    M[i, j], that of N-dimensional white noise correlated against the rows
    of Q.  A = chol(M)^T; when M is singular (more sequences than tones),
    A = sqrt(Lambda) V^T from its eigendecomposition.
    """
    if np.allclose(gram, np.eye(len(gram)), rtol=0.0, atol=1e-9):
        return None
    try:
        return np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(gram)
        return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T


def _noise(rng: np.random.Generator, shape, variance: float,
           colour: np.ndarray | None) -> np.ndarray:
    """Correlator-output noise: white CN(0, variance) draws, coloured by A."""
    w = _cscg(rng, shape, variance)
    return w if colour is None else w @ colour


def _noise_energy(rng: np.random.Generator, shape, variance: float,
                  colour: np.ndarray | None) -> np.ndarray:
    """|w|^2 of `_noise` in law.  For white noise that is an exponential of
    mean `variance` from one uniform per entry, `_exponential`; no complex
    draw is made."""
    if colour is None:
        return _exponential(rng, shape, variance)
    return np.abs(_noise(rng, shape, variance, colour)) ** 2


def wilson_sigma(successes: int, n: int) -> float:
    """Half-width of the z=1 Wilson interval about the estimate successes / n.

    It is an interval for the unknown p, not a sigma for scoring the estimate
    against a known p: near 0 or 1 it is far below the binomial sd there
    (see `binomial_sd`)."""
    if n == 0:
        return 0.0
    p = successes / n
    denom = 1.0 + 1.0 / n
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / denom


def binomial_sd(p: float, n: int) -> float:
    """sqrt(p (1 - p) / n), the sd of a mean of n independent Bernoulli(p)
    events: the sigma for scoring an estimate against a closed-form p."""
    return math.sqrt(p * (1.0 - p) / n)


def _subset(family: Family, j: int, seed: int) -> np.ndarray:
    """Sorted indices of the j members identified: the whole family, or a
    seeded draw from it."""
    if j == len(family):
        return np.arange(j)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xC0FFEE]))
    return np.sort(rng.choice(len(family), size=j, replace=False))


def run_simulation(cfg: RaSimConfig) -> RaResult:
    """Monte Carlo tallies with closed-form columns attached.

    Per SNR: `trials` request trials (uniform requested index k, fresh
    channel and noise) and `trials` no-request trials.  The J correlator
    outputs are sampled directly: y = sum_l g_l C_l[k, :] + w for a request
    and y = w without one, with tap gains g_l ~ CN(0, p_l), the leakage
    C_l[k, i] = table[l, index[k, i]] of `_leakage_tables` built once per
    run, and w white CN(0, 1/snr) noise times chol(M)^T, M = conj(Q) Q^T.
    This is the distribution of correlating the N-tone observation
    sqrt(N) q_k*h + z against the candidates.  For orthogonal families M is
    the identity to 1e-9: the multiply is skipped, and a no-request trial
    draws only |w|^2, an exponential of mean 1/snr.  The closed forms read
    the same tables.

    The tap sum depends on the table width W.  For W <= 2J (a recipe family
    picked at J >= N/2) the b x W product of the gains and the table is
    formed once per batch and gathered at index[k_b, :] + b W, then freed
    before the noise is drawn; otherwise the L taps are gathered from the
    table one at a time.  `config_echo["tap_sum"]` says which ran.

    All randomness derives from (seed, SNR index, batch index) Philox keys,
    drawn in the order k, tap gains, request noise, no-request noise, so a
    rerun of the same config is bit-identical and two families with the
    same J consume the same white draws (common random numbers).  Complex
    draws are pairs of standard normals, so the seeded numbers differ from
    versions that drew them from uniforms by the polar form.

    The p_fa and p_c sigmas are z=1 Wilson half-widths about the estimate.
    The J - 1 false-identification events of a trial share its channel
    draw, so the p_fid sigma is the standard error of the per-trial
    false-identification fraction, std(ddof=1) / sqrt(trials).
    """
    fam = cfg.family
    pick = _subset(fam, cfg.j_sequences, cfg.seed)
    j = len(pick)
    tables = _leakage_tables(fam, pick, cfg.profile, cfg.delta_f_hz)
    if cfg.p_fa_target is not None and cfg.trials * j * cfg.p_fa_target < 10:
        warnings.warn(
            f"{cfg.trials} trials cannot resolve p_fa={cfg.p_fa_target:g}; "
            f"rely on the closed-form column and validate at a relaxed target",
            stacklevel=2)
    sigma_fie, sigma_c = _variances(tables, cfg.profile.powers)
    colour = tables.colour
    tap_p = np.sqrt(np.asarray(cfg.profile.powers))
    width = tables.table.shape[1]
    # one product of the gains by a narrow table beats L gathers over b x J
    product = width <= 2 * j
    # reused buffers for the table positions of C_l[k, :] and, per tap, their gather
    rows = np.empty((min(BATCH, cfg.trials), j), dtype=np.intp)
    tap = None if product else np.empty((min(BATCH, cfg.trials), j), dtype=complex)

    per_snr = []
    for snr_idx, snr_db in enumerate(cfg.snr_db_list):
        phi = 10.0 ** (snr_db / 10.0)
        beta = cfg.beta_at(phi)
        noise_var = 1.0 / phi
        fa_count = c_count = fid_sum = fid_sq = 0
        done = 0
        batch_idx = 0
        while done < cfg.trials:
            b = min(BATCH, cfg.trials - done)
            rng = _batch_rng(cfg.seed, snr_idx, batch_idx)
            # draws depend on J only: k, tap gains, request noise, then
            # no-request noise, in that order
            ks = rng.integers(0, j, size=b)
            gains = _cscg(rng, (b, len(tap_p))) * tap_p
            at = rows[:b]
            np.take(tables.index, ks, axis=0, out=at, mode="clip")
            if product:
                # row b of the b x W product at index[k_b, :]; the product is
                # freed before the noise is drawn
                at += np.arange(b)[:, None] * width
                y = np.take((gains @ tables.table).reshape(-1), at, mode="clip")
                y += _noise(rng, (b, j), noise_var, colour)
            else:
                y = _noise(rng, (b, j), noise_var, colour)
                buf = tap[:b]
                for l in range(len(tap_p)):
                    np.take(tables.table[l], at, out=buf, mode="clip")
                    buf *= gains[:, l, None]
                    y += buf
            hits = np.abs(y) ** 2 > beta
            own = hits[np.arange(b), ks]
            fid = hits.sum(axis=1) - own
            c_count += int(own.sum())
            fid_sum += int(fid.sum())
            fid_sq += int((fid * fid).sum())
            y = hits = None  # free the request outputs before the next draw
            fa_count += int((_noise_energy(rng, (b, j), noise_var, colour) > beta).sum())
            done += b
            batch_idx += 1
        t = cfg.trials
        n_fa = t * j
        # sample variance of the per-trial count, from exact integer sums
        fid_var = (t * fid_sq - fid_sum * fid_sum) / (t * (t - 1))
        mc = {
            "p_fa": (fa_count / n_fa, wilson_sigma(fa_count, n_fa)),
            "p_fid": (fid_sum / (t * (j - 1)), math.sqrt(fid_var / t) / (j - 1)),
            "p_c": (c_count / t, wilson_sigma(c_count, t)),
        }
        cf = _closed_forms(sigma_fie, sigma_c, beta, phi)
        per_snr.append(RaSnrResult(
            snr_db=snr_db, beta=beta, mc=mc,
            closed_form={k: cf[k] for k in ("p_fa", "p_fid", "p_c")}))
    fie_max, fie_mean = _fie_stats(sigma_fie)
    return RaResult(
        config_echo={
            "n": fam.n, "j": j, "kind": fam.kind, "trials": cfg.trials,
            "seed": cfg.seed, "profile": cfg.profile.name,
            "delta_f_hz": cfg.delta_f_hz,
            "snr_db_list": [float(s) for s in cfg.snr_db_list],
            "p_fa_target": cfg.p_fa_target, "beta": cfg.beta,
            "leakage": tables.source,
            "noise": "white" if colour is None else "coloured",
            "tap_sum": "product" if product else "per_tap",
            "table_bytes": tables.table.nbytes + tables.index.nbytes,
        },
        per_snr=per_snr,
        sigma_fie_max=fie_max,
        sigma_fie_mean=fie_mean,
        sigma_c=sigma_c,
    )


def result_csv_rows(result: RaResult) -> list[tuple]:
    """(snr_db, metric, mc_value, ci_halfwidth, closed_form) rows."""
    rows = []
    for entry in result.per_snr:
        for metric in ("p_fa", "p_fid", "p_c"):
            est, sig = entry.mc[metric]
            rows.append((entry.snr_db, metric, est, sig, entry.closed_form[metric]))
    return rows
