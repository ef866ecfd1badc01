"""Random-access channel-identification simulator.

One-shot model: a terminal sends the k-th identification sequence; the
receiver correlates the frequency-domain observation against all J
candidates and thresholds the squared magnitudes.  Monte Carlo estimates
of the false-alarm, false-identification, and correct-identification
probabilities come with Wilson intervals and closed-form companions
derived from the tap statistics.
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
from .seqforge import Family

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
        if any(d < 0 for d in self.delays_s):
            raise DomainError("negative tap delay")
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
            taps = [(float(t["delay_ns"]), float(t["power_db"])) for t in data["taps"]]
        except (TypeError, KeyError, ValueError) as exc:
            raise DomainError(
                f"profile needs a name and taps [{{delay_ns, power_db}}, ...]: {exc!r}"
            ) from exc
        delays = tuple(d * 1e-9 for d, _ in taps)
        powers = np.array([10.0 ** (p / 10.0) for _, p in taps])
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
        if self.j_sequences > len(self.family):
            raise DomainError("more identification sequences than family members")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")

    def beta_at(self, phi: float) -> float:
        if self.beta is not None:
            return self.beta
        return -math.log(self.p_fa_target) / phi


@dataclass
class RaSnrResult:
    snr_db: float
    beta: float
    mc: dict            # metric -> (estimate, wilson_sigma)
    closed_form: dict   # metric -> value


@dataclass
class RaResult:
    config_echo: dict
    per_snr: list[RaSnrResult]
    sigma_fie_max: float
    sigma_fie_mean: float
    sigma_c: float


def _cscg(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussians via the polar (Box-Muller) form,
    so draws depend only on the generator's uniform stream."""
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    mag = np.sqrt(-variance * np.log1p(-u1))
    return mag * np.exp(2j * np.pi * u2)


def _batch_rng(seed: int, label: int, batch: int) -> np.random.Generator:
    # Philox keys are two 64-bit words: (seed, substream) with the substream
    # packing the per-SNR label and the batch index
    return np.random.Generator(np.random.Philox(key=[seed, (label << 32) | batch]))


def sample_cfr(profile: ChannelProfile, n: int, delta_f_hz: float,
               rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Channel frequency response rows h[n] = sum_l g_l exp(-2j pi df n tau_l)
    with independent complex-Gaussian tap gains of the profile powers."""
    gains = _cscg(rng, (count, len(profile.delays_s)))
    gains = gains * np.sqrt(np.asarray(profile.powers))
    phases = np.exp(-2j * np.pi * delta_f_hz * np.outer(
        np.asarray(profile.delays_s), np.arange(n)))
    h = gains @ phases
    return h if count > 1 else h[0]


def received_vector(q_k: np.ndarray, h: np.ndarray, snr_linear: float,
                    rng: np.random.Generator) -> np.ndarray:
    """r = sqrt(N) q_k*h + z with noise variance 1/snr per sample."""
    n = len(q_k)
    z = _cscg(rng, n, variance=1.0 / snr_linear)
    return math.sqrt(n) * q_k * h + z


def detect(r: np.ndarray, q_matrix: np.ndarray, beta: float) -> np.ndarray:
    """Indices whose squared correlation magnitude exceeds the threshold."""
    if beta <= 0:
        raise DomainError("threshold must be positive")
    y = np.abs(q_matrix.conj() @ r) ** 2
    return np.nonzero(y > beta)[0]


def interference_variances(q_matrix: np.ndarray, profile: ChannelProfile,
                           delta_f_hz: float) -> tuple[np.ndarray, float]:
    """Pairwise leakage variances and the matched-sequence signal variance.

    sigma_fie[i, k] = N sum_l p_l |sum_n conj(q_i) q_k exp(-2j pi df n tau_l)|^2
    sigma_c = (1/N) sum_l p_l |sum_n exp(-2j pi df n tau_l)|^2
    """
    j, n = q_matrix.shape
    sigma_fie = np.zeros((j, j))
    sigma_c = 0.0
    idx = np.arange(n)
    for delay, p in zip(profile.delays_s, profile.powers):
        ph = np.exp(-2j * np.pi * delta_f_hz * delay * idx)
        cross = q_matrix.conj() @ (q_matrix * ph).T  # (i, k) entry
        sigma_fie += p * np.abs(cross) ** 2
        sigma_c += p * abs(ph.sum()) ** 2
    sigma_fie *= n
    np.fill_diagonal(sigma_fie, 0.0)
    return sigma_fie, sigma_c / n


def closed_form_metrics(q_matrix: np.ndarray, profile: ChannelProfile,
                        beta: float, phi: float,
                        delta_f_hz: float = 1250.0) -> dict:
    """Exact detection probabilities for the exponential correlator statistics."""
    sigma_fie, sigma_c = interference_variances(q_matrix, profile, delta_f_hz)
    j = q_matrix.shape[0]
    p_fa = math.exp(-beta * phi)
    per_k = []
    for k in range(j):
        others = [i for i in range(j) if i != k]
        per_k.append(sum(
            math.exp(-beta * phi / (1.0 + phi * sigma_fie[i, k])) for i in others
        ) / (j - 1))
    p_c = math.exp(-beta * phi / (1.0 + phi * sigma_c))
    off = sigma_fie[~np.eye(j, dtype=bool)]
    return {
        "p_fa": p_fa,
        "p_fid_per_k": per_k,
        "p_fid": float(np.mean(per_k)),
        "p_c": p_c,
        "sigma_c": sigma_c,
        "sigma_fie_max": float(off.max()) if off.size else 0.0,
        "sigma_fie_mean": float(off.mean()) if off.size else 0.0,
    }


def wilson_sigma(successes: int, n: int) -> float:
    """Half-width of the z=1 Wilson interval (a robust one-sigma proxy)."""
    if n == 0:
        return 0.0
    p = successes / n
    denom = 1.0 + 1.0 / n
    return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / denom


def _subset(family: Family, j: int, seed: int) -> np.ndarray:
    q = family.q_matrix()
    if j == len(family):
        return q
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xC0FFEE]))
    pick = np.sort(rng.choice(len(family), size=j, replace=False))
    return q[pick]


def run_simulation(cfg: RaSimConfig) -> RaResult:
    """Monte Carlo tallies with closed-form columns attached.

    Per SNR: `trials` request trials (uniform requested index, fresh
    channel and noise) and `trials` no-request trials.  All randomness
    derives from (seed, stream-label, batch-index) Philox keys, so a rerun
    of the same config is bit-identical and paired runs over different
    families consume identical channel/noise streams.
    """
    fam = cfg.family
    n = fam.n
    q = np.ascontiguousarray(_subset(fam, cfg.j_sequences, cfg.seed))
    j = q.shape[0]
    if cfg.p_fa_target is not None and cfg.trials * j * cfg.p_fa_target < 10:
        warnings.warn(
            f"{cfg.trials} trials cannot resolve p_fa={cfg.p_fa_target:g}; "
            f"rely on the closed-form column and validate at a relaxed target",
            stacklevel=2)
    delays = np.asarray(cfg.profile.delays_s)
    tap_p = np.sqrt(np.asarray(cfg.profile.powers))
    tap_phases = np.exp(-2j * np.pi * cfg.delta_f_hz * np.outer(delays, np.arange(n)))
    q_h = q.conj().T

    per_snr = []
    sigma_stats = None
    for snr_idx, snr_db in enumerate(cfg.snr_db_list):
        phi = 10.0 ** (snr_db / 10.0)
        beta = cfg.beta_at(phi)
        noise_var = 1.0 / phi
        fa_count = 0
        fid_count = 0
        c_count = 0
        done = 0
        batch_idx = 0
        while done < cfg.trials:
            b = min(BATCH, cfg.trials - done)
            rng = _batch_rng(cfg.seed, snr_idx, batch_idx)
            # draws are family-independent: k, tap gains, request noise,
            # then no-request noise, in that order
            ks = rng.integers(0, j, size=b)
            gains = _cscg(rng, (b, len(delays))) * tap_p
            h = gains @ tap_phases
            z = _cscg(rng, (b, n), variance=noise_var)
            r = math.sqrt(n) * q[ks] * h + z
            y = np.abs(r @ q_h) ** 2
            hits = y > beta
            c_count += int(hits[np.arange(b), ks].sum())
            fid_count += int(hits.sum()) - int(hits[np.arange(b), ks].sum())
            z0 = _cscg(rng, (b, n), variance=noise_var)
            y0 = np.abs(z0 @ q_h) ** 2
            fa_count += int((y0 > beta).sum())
            done += b
            batch_idx += 1
        cf = closed_form_metrics(q, cfg.profile, beta, phi, cfg.delta_f_hz)
        if sigma_stats is None:
            sigma_stats = (cf["sigma_fie_max"], cf["sigma_fie_mean"], cf["sigma_c"])
        n_fa = cfg.trials * j
        n_fid = cfg.trials * (j - 1)
        mc = {
            "p_fa": (fa_count / n_fa, wilson_sigma(fa_count, n_fa)),
            "p_fid": (fid_count / n_fid, wilson_sigma(fid_count, n_fid)),
            "p_c": (c_count / cfg.trials, wilson_sigma(c_count, cfg.trials)),
        }
        per_snr.append(RaSnrResult(
            snr_db=snr_db, beta=beta, mc=mc,
            closed_form={k: cf[k] for k in ("p_fa", "p_fid", "p_c")}))
    return RaResult(
        config_echo={
            "n": n, "j": j, "kind": fam.kind, "trials": cfg.trials,
            "seed": cfg.seed, "profile": cfg.profile.name,
            "delta_f_hz": cfg.delta_f_hz,
            "snr_db_list": [float(s) for s in cfg.snr_db_list],
            "p_fa_target": cfg.p_fa_target, "beta": cfg.beta,
        },
        per_snr=per_snr,
        sigma_fie_max=sigma_stats[0],
        sigma_fie_mean=sigma_stats[1],
        sigma_c=sigma_stats[2],
    )


def result_csv_rows(result: RaResult) -> list[tuple]:
    """(snr_db, metric, mc_value, ci_halfwidth, closed_form) rows."""
    rows = []
    for entry in result.per_snr:
        for metric in ("p_fa", "p_fid", "p_c"):
            est, sig = entry.mc[metric]
            rows.append((entry.snr_db, metric, est, sig, entry.closed_form[metric]))
    return rows
