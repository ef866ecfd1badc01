"""The four workloads: inputs derived from the seed, one pass of work, checks.

Each workload builds its inputs in ``setup`` (timed as set-up) and runs
its operations in ``run_pass``.  Only the calls into caseq are timed;
every operation's output is checked between the timed calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import zlib
from pathlib import Path

import numpy as np

from checks import (CA_TOL, CONCAT_TABLE, CONDITION_A, CONDITION_B, FLAT_TABLE,
                    GRAM_TOL, ORACLE_RTOL, README_FACTORIZE, Z_LIMIT, ZAC_RTOL,
                    fid_trial_std, oracle_rel_error, parseval_total, spot_gram,
                    z_scores)
from harness import patched


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _check_report(op, report, n: int, bound: int):
    """Thresholds on a seqverify report (object or its dict form)."""
    get = report.get if isinstance(report, dict) else (lambda k: getattr(report, k))
    op.expect(get("ca_max_dev") <= CA_TOL, f"CA deviation {get('ca_max_dev')}")
    gram = get("gram_max_offdiag")
    op.expect(gram is not None and gram <= GRAM_TOL, f"Gram off-diagonal {gram}")
    op.expect(get("zac_max_offpeak") <= ZAC_RTOL * n, f"ZAC {get('zac_max_offpeak')}")
    op.expect(get("measured_sd_order") >= bound,
              f"measured order {get('measured_sd_order')} below bound {bound}")


class FamilyTables:
    """Paper tables: factor sets, decompositions, families, README flows."""

    name = "family_tables"

    def setup(self, cq, seed: int, smoke: bool, workdir: Path) -> dict:
        rng = _rng(seed, self.name)
        sweep_width, mpo_width = (20, 5) if smoke else (400, 60)
        flat_ns = (48,) if smoke else tuple(FLAT_TABLE)
        concat_ns = (139,) if smoke else tuple(CONCAT_TABLE)
        sf = cq.seqforge
        families = []
        for n in flat_ns:
            cfg = sf.WaveformConfig(n_seq=n, **CONDITION_A)
            for (kappa, mode), (factors, size, _, _) in FLAT_TABLE[n][1].items():
                kind = "pma" if kappa == 0 else ("near_dpma" if mode == "near" else "dpma")
                families.append((f"{kind}{n}_k{kappa}", kind, cfg, kappa, None,
                                 size, [factors]))
        for n in concat_ns:
            cfg = sf.WaveformConfig(n_seq=n, **CONDITION_B)
            parts, _, sizes, factor_sets = CONCAT_TABLE[n]
            for kappa, (size, aug_size) in sizes.items():
                plain, augmented = ("hat_pma", "apma") if kappa == 0 else ("hat_dpma", "adpma")
                for kind, expect in ((plain, size), (augmented, aug_size)):
                    families.append((f"{kind}{n}_k{kappa}", kind, cfg, kappa, parts,
                                     expect, factor_sets[kappa]))
        prime_n = 139 if smoke else 839
        families.append((f"pma{prime_n}", "pma", sf.WaveformConfig(n_seq=prime_n, **CONDITION_B),
                         0, None, prime_n - 1, [(prime_n,)]))
        parts_file = workdir / "parts.json"
        parts_file.write_text(json.dumps({"parts": [50, 45, 44]}))
        sweep_start = int(rng.integers(8, 5000 - sweep_width + 1))
        mpo_start = int(rng.integers(100, 1200 - mpo_width + 1))
        return {
            "flat_ns": flat_ns, "concat_ns": concat_ns, "families": families,
            "sweep": range(sweep_start, sweep_start + sweep_width),
            "mpo": range(mpo_start, mpo_start + mpo_width),
            "parts_file": parts_file, "workdir": workdir,
        }

    def run_pass(self, run, cq, inp: dict):
        fl, sf, sv = cq.factorlab, cq.seqforge, cq.seqverify

        def factor_set(n, kappa, mode):
            pf = fl.prime_factorize(n)
            if kappa == 0:
                return fl.FactorSet(n, pf.primes, kappa=0)
            if mode == "near":
                return fl.near_proper_factorization(pf, kappa)
            if kappa == 1:
                return fl.proper_factorization_kappa1(pf)
            if kappa == 2:
                return fl.proper_factorization_kappa2(pf)
            return fl.exclusive_search_proper(pf, kappa)

        def row(n, kappa, mode, min_csd):
            fs = factor_set(n, kappa, mode)
            return fs, fl.available_with_min_csd(fs, min_csd)

        for n in inp["flat_ns"]:
            min_csd, rows = FLAT_TABLE[n]
            for (kappa, mode), (factors, size, csd, avail) in rows.items():
                with run.operation(f"factor_row:{n}:{kappa}:{mode}") as op:
                    fs, got = op.timed("factor_table", row, n, kappa, mode, min_csd)
                    op.expect((tuple(sorted(fs.factors)), fs.family_size,
                               fs.family_csd, got) == (factors, size, csd, avail),
                              f"row {fs.factors} size {fs.family_size} csd "
                              f"{fs.family_csd} available {got}")

        def search_vs_closed(n):
            pf = fl.prime_factorize(n)
            if not 3 <= pf.omega <= 7:
                return []
            out = [(fl.exclusive_search_proper(pf, 1).family_size,
                    fl.proper_factorization_kappa1(pf).family_size)]
            if pf.omega > 3:
                out.append((fl.exclusive_search_proper(pf, 2).family_size,
                            fl.proper_factorization_kappa2(pf).family_size))
            return out

        for n in inp["sweep"]:
            with run.operation(f"kappa_sweep:{n}") as op:
                for searched, closed in op.timed("factor_table", search_vs_closed, n):
                    op.expect(searched == closed, f"search {searched} != closed form {closed}")

        for n in inp["mpo"]:
            with run.operation(f"mpo:{n}") as op:
                d = op.timed("factor_table", fl.mpo_decompose, n)
                op.expect(sum(d.parts) == n and d.min_omega == d.mpo,
                          f"witness {d.parts} at mpo {d.mpo}")
        for n in inp["concat_ns"]:
            with run.operation(f"mpo_restricted:{n}") as op:
                plain = op.timed("factor_table", fl.mpo_decompose, n)
                d = op.timed("factor_table", fl.mpo_decompose, n, require_restriction_a=True)
                level = CONCAT_TABLE[n][1]
                op.expect(plain.mpo >= level and d.mpo >= level,
                          f"mpo {plain.mpo}/{d.mpo} below the table level {level}")
                op.expect(len(d.parts) >= 3 and 2 * max(d.parts) < n,
                          f"restricted witness {d.parts} breaks restriction A")

        def build(kind, cfg, kappa, parts):
            decomp = None if parts is None else fl.Decomposition.from_parts(cfg.n_seq, parts)
            return sf.build_family(kind, cfg, kappa=kappa, decomp=decomp)

        def roundtrip(fam):
            data = sf.family_to_dict(fam)
            return data, sf.family_from_dict(json.loads(json.dumps(data)))

        for label, kind, cfg, kappa, parts, size, factor_sets in inp["families"]:
            with run.operation(f"family:{label}") as op:
                fam = op.timed("family_table", build, kind, cfg, kappa, parts)
                report = op.timed("family_table", sv.check_family, fam)
                data, back = op.timed("family_table", roundtrip, fam)
                op.expect(len(fam) == size == data["size"], f"size {len(fam)} != {size}")
                got_sets = ([data["factor_set"]] if "factor_set" in data
                            else data.get("factor_sets"))
                op.expect([tuple(sorted(f)) for f in got_sets] == list(factor_sets),
                          f"factor sets {got_sets}")
                _check_report(op, report, cfg.n_seq, fam.sd_order_bound)
                chi = np.vstack([s.chi for s in fam.sequences])
                picks = _rng(run.seed, label).choice(len(fam), size=min(3, len(fam)),
                                                     replace=False)
                op.expect(float(np.max(np.abs(np.abs(chi[picks]) - 1.0))) <= CA_TOL,
                          "spot CA check")
                op.expect(spot_gram(chi, cfg.gamma, picks) <= GRAM_TOL, "spot Gram check")
                again = sf.family_to_dict(back)
                changed = [k for k in again if again[k] != data.get(k)]
                op.expect(not changed, f"JSON round trip changes {changed}")
                dropped = sorted(set(data) - set(again))
                if dropped:
                    run.record("json_dropped_keys", {"family": label, "keys": dropped})
                op.expect(len(back) == len(fam) and all(
                    a.chi.tobytes() == b.chi.tobytes()
                    for a, b in zip(fam.sequences, back.sequences)),
                    "JSON round trip is not bit-exact")

        cli, work = cq.cli, inp["workdir"]
        with run.operation("cli:factorize") as op:
            out = work / "factorize.json"
            code = op.timed("cli.factorize", _cli, cli, [
                "factorize", "--n", "288", "--kappa", "5", "--min-csd", "24",
                "--json", "--out", str(out)], layer="cli")
            op.expect(code == 0, f"exit code {code}")
            info = json.loads(out.read_text())
            op.expect({k: info[k] for k in README_FACTORIZE} == README_FACTORIZE,
                      f"factorize output {info}")
        fam_file, rep_file = work / "fam.json", work / "verify.json"
        with run.operation("cli:build") as op:
            code = op.timed("cli.build", _cli, cli, [
                "build", "--n", "139", "--kind", "adpma", "--kappa", "1",
                "--decomp", str(inp["parts_file"]), "--out", str(fam_file)], layer="cli")
            op.expect(code == 0, f"exit code {code}")
            built = json.loads(fam_file.read_text())
            op.expect((built["kind"], built["size"]) == ("adpma", 60), f"built {built['size']}")
            op.expect(fam_file.with_suffix(".json.manifest.json").is_file(), "no manifest")
        with run.operation("cli:verify") as op:
            code = op.timed("cli.verify", _cli, cli, [
                "verify", "--family", str(fam_file), "--out", str(rep_file)], layer="cli")
            op.expect(code == 0, f"exit code {code}")
            _check_report(op, json.loads(rep_file.read_text()), 139, built["sd_order_bound"])


class Spectral:
    """Criterion-8 slope figure, eta tables and the CLI slope flow."""

    name = "spectral"
    BANDWIDTHS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]

    def setup(self, cq, seed: int, smoke: bool, workdir: Path) -> dict:
        sf, fl = cq.seqforge, cq.factorlab
        cfg139 = sf.WaveformConfig(n_seq=139, **CONDITION_B)
        cfg48 = sf.WaveformConfig(n_seq=48, **CONDITION_A)
        # the N=139 grid needs 4 * span * N points to resolve the subcarriers
        slope_seqs = [("zc139", sf.build_zc_sequence(1, 139, cfg139),
                       36864 if smoke else 2 ** 16)]
        for kappa in range(4):
            kind = "pma" if kappa == 0 else "dpma"
            label = "pma48" if kappa == 0 else f"dpma48_k{kappa}"
            slope_seqs.append((label, sf.build_family(kind, cfg48, kappa=kappa).sequences[0],
                               2 ** 14 if smoke else 2 ** 16))
        apma = sf.build_family("apma", cfg139,
                               decomp=fl.Decomposition.from_parts(139, (50, 45, 44)))
        zc = sf.build_family("zc", cfg139, count=20, min_csd=13)
        if smoke:
            apma = dataclasses.replace(apma, sequences=apma.sequences[:2])
            zc = dataclasses.replace(zc, sequences=zc.sequences[:2])
        fam_file = workdir / "apma139.json"
        fam_file.write_text(json.dumps(sf.family_to_dict(apma)))
        return {
            "slope_seqs": slope_seqs,
            "eta_families": [("apma139", apma), ("zc139", zc)],
            # the smallest grid that resolves N=139 subcarriers at span 16
            "eta_points": 9216, "cli_points": 36864 if smoke else 2 ** 16,
            "oracle_points": 2 if smoke else 3,
            "fam_file": fam_file, "workdir": workdir,
        }

    def _check_grids(self, run, op, grids, label: str, n_picks: int):
        for i, (seq, spec) in enumerate(grids):
            op.same_as_first_pass(f"{label}{i}", spec.power)
            if run.pass_index:
                continue
            gamma, alpha = seq.cfg.gamma, seq.cfg.alpha
            rng = _rng(run.seed, f"{label}{i}")
            picks = [int(np.argmax(spec.power))] + [
                int(k) for k in rng.integers(0, len(spec.power), size=n_picks)]
            err = oracle_rel_error(seq.chi, gamma, alpha, spec.freqs, spec.power, picks)
            op.expect(err <= ORACLE_RTOL, f"grid {label}{i}: oracle miss {err:.3e}")
            exact = parseval_total(seq.chi, gamma, alpha)
            total_err = abs(spec.total_power * gamma * len(seq.chi) - exact) / exact
            run.fidelity_max("kernels.oracle_max_rel_err", err)
            run.fidelity_max("spectra.total_power_rel_err", total_err)
            run.record("grids", {"grid": f"{label}{i}", "points": len(spec.power),
                                 "oracle_rel_err": err, "total_power_rel_err": total_err})
        grids.clear()

    def run_pass(self, run, cq, inp: dict):
        spectra = cq.spectra
        grids = []
        compute = spectra.compute_spectrum

        def capture(seq, *args, **kwargs):
            spec = compute(seq, *args, **kwargs)
            grids.append((seq, spec))
            return spec

        with patched(spectra, "compute_spectrum", capture):
            with run.operation("slope_figure") as op:
                slopes = {}
                for label, seq, points in inp["slope_seqs"]:
                    spec = op.timed("slope_fig", spectra.compute_spectrum, seq, 64.0, points)
                    slopes[label] = op.timed("slope_fig", spectra.estimate_decay_order,
                                             spec, (2.0, 24.0))
                self._check_grids(run, op, grids, "slope", inp["oracle_points"])
                op.expect(abs(slopes["zc139"] + 2.0) <= 0.3, f"zc slope {slopes['zc139']}")
                op.expect(slopes["pma48"] <= -10.0, f"pma48 slope {slopes['pma48']}")
                chain = [slopes["pma48"]] + [slopes[f"dpma48_k{k}"] for k in (1, 2, 3)]
                op.expect(all(a <= b - 1.0 for a, b in zip(chain, chain[1:])),
                          f"slopes not ordered by kappa: {chain}")
                if run.pass_index == 0:
                    for label, slope in slopes.items():
                        run.fidelity[f"spectra.slope.{label}"] = slope

            for label, fam in inp["eta_families"]:
                with run.operation(f"eta:{label}") as op:
                    rows = op.timed("eta_table", spectra.out_of_band_fraction, fam,
                                    self.BANDWIDTHS, 16.0, inp["eta_points"])
                    self._check_grids(run, op, grids, f"eta_{label}_", inp["oracle_points"])
                    etas = [eta for _, eta in rows]
                    op.expect([b for b, _ in rows] == self.BANDWIDTHS, "bandwidth column")
                    op.expect(all(b <= a for a, b in zip(etas, etas[1:])),
                              f"eta increases with B: {etas}")
                    op.expect(max(etas) <= 0.0, f"eta above 0 dB: {etas}")
                    op.same_as_first_pass("rows", repr(rows))
                    run.record("eta", {"family": label, "rows": rows})

            csv_file = inp["workdir"] / "spectrum.csv"
            with run.operation("cli:spectrum") as op:
                code = op.timed("cli.spectrum", _cli, cq.cli, [
                    "spectrum", "--family", str(inp["fam_file"]), "--slope",
                    "--points", str(inp["cli_points"]), "--out", str(csv_file)],
                    layer="cli")
                op.expect(code == 0, f"exit code {code}")
                lines = csv_file.read_text().splitlines()
                op.expect(len(lines) == inp["cli_points"] + 1, f"{len(lines)} CSV lines")
                self._check_grids(run, op, grids, "cli", inp["oracle_points"])


class _Rach:
    SNRS = [-8.0, 2.0, 12.0]
    P_FA = 1e-2

    def __init__(self):
        self._fid_std = {}

    def fid_std(self, label: str, cfg) -> dict:
        """Per-trial p_fid standard deviation of a config, computed once per run.

        When J is smaller than the family, the J members are the
        benchmark's own seeded draw, a stand-in for the simulator's.
        """
        if label not in self._fid_std:
            rng = _rng(cfg.seed, f"fid:{label}")
            q = cfg.family.q_matrix()
            if cfg.j_sequences < len(q):
                q = q[np.sort(rng.choice(len(q), size=cfg.j_sequences, replace=False))]
            self._fid_std[label] = fid_trial_std(
                q, cfg.profile.delays_s, cfg.profile.powers, cfg.delta_f_hz,
                cfg.snr_db_list, cfg.p_fa_target, rng)
        return self._fid_std[label]

    def run_pass(self, run, cq, inp: dict):
        rachsim = cq.rachsim
        for label, fam, profile, j in inp["configs"]:
            cfg = rachsim.RaSimConfig(
                family=fam, snr_db_list=self.SNRS, trials=inp["trials"],
                seed=run.seed, profile=profile, j_sequences=j, p_fa_target=self.P_FA)
            with run.operation(f"simulate:{label}") as op:
                result = op.timed("simulation", rachsim.run_simulation, cfg)
                fid_std = self.fid_std(label, cfg)
                for snr, metric, z in z_scores(result):
                    # the reported p_fid sigma treats the J - 1 events of a
                    # trial as independent; the check uses the model's
                    # per-trial sigma instead, and z stays as reported
                    z_check = z
                    if metric == "p_fid":
                        entry = next(e for e in result.per_snr if e.snr_db == snr)
                        z_check = z * entry.mc["p_fid"][1] / (fid_std[snr] / cfg.trials ** 0.5)
                    op.expect(abs(z_check) <= Z_LIMIT,
                              f"{metric} at {snr} dB: z = {z_check:.2f} (reported sigma: {z:.2f})")
                    run.record("z", {"config": label, "snr_db": snr, "metric": metric,
                                     "z": z, "z_check": z_check})
                    if run.pass_index == 0:
                        run.fidelity_max("rachsim.mc_max_abs_z", abs(z))
                        key = f"rachsim.z.{metric}"
                        if abs(z) >= abs(run.fidelity.get(key, 0.0)):
                            run.fidelity[key] = z
                probs = [v for e in result.per_snr for v in
                         [e.mc[m][0] for m in e.mc] + list(e.closed_form.values())]
                op.expect(all(0.0 <= p <= 1.0 for p in probs), "probability outside [0, 1]")
                op.same_as_first_pass("mc", repr([e.mc for e in result.per_snr]))


class RachId(_Rach):
    """Criterion-10 shape: adpma839 against the multiroot ZC baseline."""

    name = "rach_id"

    def setup(self, cq, seed: int, smoke: bool, workdir: Path) -> dict:
        sf, fl, rs = cq.seqforge, cq.factorlab, cq.rachsim
        cfg = sf.WaveformConfig(n_seq=839, **CONDITION_B)
        adpma = sf.build_family("adpma", cfg, kappa=1,
                                decomp=fl.Decomposition.from_parts(839, (396, 243, 200)))
        zc = sf.build_family("zc", cfg, count=64, min_csd=26)
        profiles = {p: rs.ChannelProfile.shipped(p) for p in ("umi", "ind")}
        return {"trials": 256 if smoke else 2048, "configs": [
            (f"{name}839_{p}", fam, profiles[p], 64)
            for name, fam in (("adpma", adpma), ("zc", zc)) for p in profiles]}


class RachWide(_Rach):
    """pma at prime N: J = N - 1 identification sequences."""

    name = "rach_wide"

    def setup(self, cq, seed: int, smoke: bool, workdir: Path) -> dict:
        n = 139 if smoke else 839
        fam = cq.seqforge.build_family("pma", cq.seqforge.WaveformConfig(n_seq=n, **CONDITION_B))
        return {"trials": 64 if smoke else 2048, "configs": [
            (f"pma{n}_umi", fam, cq.rachsim.ChannelProfile.shipped("umi"), None)]}


WORKLOADS = {w.name: w for w in (FamilyTables, Spectral, RachId, RachWide)}
