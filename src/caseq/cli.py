"""Command-line front end.

Subcommands: factorize, build, verify, spectrum, simulate.  Every run
writes a manifest (command echo, version, seed, outputs) next to its
outputs.  Exit codes: 0 success, 2 usage or malformed input, 3
mathematical infeasibility.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, factorlab, rachsim, seqforge, seqverify, spectra
from .factorlab import DomainError, InfeasibleError

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _parse_alpha(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse guard ratio {text!r}") from exc


def _write_json(path: Path, data: dict):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[tuple]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_manifest(args, outputs: list[Path], record: dict | None = None):
    """Write the run's manifest, with the command's own `record` entries.
    Everything outside its "run" block is a function of the command line,
    so reruns agree there byte for byte."""
    if not outputs:
        return
    manifest = {
        "command": args.command,
        "parameters": {k: (str(v) if isinstance(v, (Fraction, Path)) else v)
                       for k, v in sorted(vars(args).items())
                       if k not in ("func", "command")},
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "outputs": [str(p) for p in outputs],
        **(record or {}),
        "run": {"timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()},
    }
    _write_json(outputs[0].with_suffix(outputs[0].suffix + ".manifest.json"), manifest)


def cmd_factorize(args) -> int:
    fs = factorlab.factor_set(args.n, args.kappa, args.mode)
    info = {
        "n": args.n,
        "kappa": args.kappa,
        "mode": args.mode,
        "factor_set": list(fs.sorted_ascending()),
        "family_size": fs.family_size,
        "family_csd": fs.family_csd,
    }
    if args.min_csd is not None:
        info["min_csd"] = args.min_csd
        info["available"] = factorlab.available_with_min_csd(fs, args.min_csd)
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        line = (f"N={info['n']} kappa={info['kappa']} "
                f"factors={{{','.join(map(str, info['factor_set']))}}} "
                f"size={info['family_size']} csd={info['family_csd']}")
        if "available" in info:
            line += f" available(min_csd={args.min_csd})={info['available']}"
        print(line)
    if args.out:
        out = Path(args.out)
        _write_json(out, info)
        _write_manifest(args, [out])
    return 0


def _decomp_from_file(path: str, n: int) -> factorlab.Decomposition:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    parts = data.get("parts") if isinstance(data, dict) else None
    if not isinstance(parts, list) or not all(isinstance(p, int) for p in parts):
        raise DomainError(f"{path}: need {{\"parts\": [int, ...]}}")
    return factorlab.Decomposition.from_parts(n, parts)


def _build_family(args) -> seqforge.Family:
    cfg = seqforge.WaveformConfig(n_seq=args.n, gamma=args.gamma,
                                  alpha=_parse_alpha(args.alpha))
    decomp = _decomp_from_file(args.decomp, args.n) if args.decomp else None
    return seqforge.build_family(args.kind, cfg, kappa=args.kappa, decomp=decomp,
                                 count=args.count, min_csd=args.min_csd)


def cmd_build(args) -> int:
    fam = _build_family(args)
    report = seqverify.check_family(fam, beta_cap=args.beta_cap)
    out = Path(args.out)
    _write_json(out, seqforge.family_to_dict(fam, include_sequences=args.values))
    print(f"kind={fam.kind} N={fam.n} size={len(fam)} "
          f"sd_bound={fam.sd_order_bound} condition={fam.cfg.condition}")
    print(f"verify: ca_dev={report.ca_max_dev:.2e} "
          f"zac={report.zac_max_offpeak:.2e} "
          f"gram={report.gram_max_offdiag if report.gram_max_offdiag is None else f'{report.gram_max_offdiag:.2e}'} "
          f"sd_order>={report.measured_sd_order}"
          f"{'+' if report.sd_order_capped else ''}")
    _write_manifest(args, [out])
    return 0


def cmd_verify(args) -> int:
    fam = _load_family(args.family)
    report = seqverify.check_family(fam, beta_cap=args.beta_cap)
    data = report.to_dict()
    data["kind"] = fam.kind
    data["n"] = fam.n
    print(json.dumps(data, sort_keys=True))
    if args.out:
        out = Path(args.out)
        _write_json(out, data)
        _write_manifest(args, [out])
    return 0


def _load_family(path: str) -> seqforge.Family:
    with open(path, encoding="utf-8") as fh:
        return seqforge.family_from_dict(json.load(fh))


def cmd_spectrum(args) -> int:
    if args.slope == args.eta:
        raise DomainError("spectrum takes exactly one of --slope and --eta")
    fam = _load_family(args.family)
    out = Path(args.out) if args.out else None
    if args.slope:
        spec = spectra.compute_spectrum(fam.sequences[0], args.span, args.points)
        slope = spectra.estimate_decay_order(spec, (args.fit_lo, args.fit_hi))
        print(f"kind={fam.kind} N={fam.n} fitted_slope={slope:.3f}")
        if out:
            _write_csv(out, ["normalized_freq", "power_db"],
                       spectra.spectrum_csv_rows(spec))
    else:
        bandwidths = [float(b) for b in args.bandwidths.split(",")]
        rows = spectra.out_of_band_fraction(fam, bandwidths)
        for b, eta in rows:
            print(f"B={b:g} eta_db={eta:.3f}")
        if out:
            _write_csv(out, ["normalized_bandwidth", "eta_db", "family_kind"],
                       [(b, eta, fam.kind) for b, eta in rows])
    _write_manifest(args, [out] if out else [])
    return 0


def cmd_simulate(args) -> int:
    fam = _load_family(args.family)
    if args.profile == "ff":
        profile = rachsim.ChannelProfile.flat_fading()
    elif args.profile in ("umi", "ind"):
        profile = rachsim.ChannelProfile.shipped(args.profile)
    else:
        profile = rachsim.ChannelProfile.load(args.profile)
    cfg = rachsim.RaSimConfig(
        family=fam,
        snr_db_list=[float(s) for s in args.snr.split(",")],
        trials=args.trials,
        seed=args.seed,
        profile=profile,
        j_sequences=args.j,
        p_fa_target=args.p_fa if args.beta is None else None,
        beta=args.beta,
        delta_f_hz=args.delta_f,
    )
    result = rachsim.run_simulation(cfg)
    for entry in result.per_snr:
        mc = entry.mc
        cf = entry.closed_form
        print(f"snr={entry.snr_db:g}dB beta={entry.beta:.4g} "
              f"p_fa={mc['p_fa'][0]:.3e}/{cf['p_fa']:.3e} "
              f"p_fid={mc['p_fid'][0]:.3e}/{cf['p_fid']:.3e} "
              f"p_c={mc['p_c'][0]:.4f}/{cf['p_c']:.4f}")
    outputs = []
    if args.out:
        out = Path(args.out)
        _write_csv(out, ["snr_db", "metric", "mc_value", "ci_halfwidth",
                         "closed_form"], rachsim.result_csv_rows(result))
        outputs.append(out)
        # which leakage tables, noise and tap sum the model ran on, and the tables' size
        echo = result.config_echo
        _write_manifest(args, outputs, {"simulation": {
            k: echo[k] for k in ("leakage", "noise", "tap_sum", "table_bytes")}})
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="caseq",
        description="Constant-amplitude sequence families for OFDM preambles")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("factorize", help="factor-set search at a degeneracy level")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--mode", choices=factorlab.FACTOR_SET_MODES, default="proper")
    p.add_argument("--min-csd", dest="min_csd", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("build", help="construct a family and write its JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=seqforge.FAMILY_KINDS, required=True)
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--alpha", default="33/256", help="guard ratio as p/q")
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--decomp", default=None,
                   help="JSON file with {\"parts\": [...]} for hat kinds")
    p.add_argument("--count", type=int, default=None,
                   help="members: the zc/pn size, or the leading members kept")
    p.add_argument("--min-csd", dest="min_csd", type=int, default=None)
    p.add_argument("--values", action="store_true",
                   help="embed sequence values in the family JSON")
    p.add_argument("--beta-cap", dest="beta_cap", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="re-check a family JSON")
    p.add_argument("--family", required=True)
    p.add_argument("--beta-cap", dest="beta_cap", type=int, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="power spectrum, slopes, eta tables")
    p.add_argument("--family", required=True)
    p.add_argument("--slope", action="store_true")
    p.add_argument("--eta", action="store_true")
    p.add_argument("--span", type=float, default=64.0, help="--slope grid span")
    p.add_argument("--points", type=int, default=2 ** 20, help="--slope grid points")
    p.add_argument("--fit-lo", dest="fit_lo", type=float, default=2.0)
    p.add_argument("--fit-hi", dest="fit_hi", type=float, default=24.0)
    p.add_argument("--bandwidths", default="0.5,1,1.5,2,3,4")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="random-access identification Monte Carlo")
    p.add_argument("--family", required=True)
    p.add_argument("--profile", default="ff",
                   help="'ff', 'umi', 'ind', or a profile JSON path")
    p.add_argument("--snr", default="-8,0,12", help="comma-separated dB values")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--p-fa", dest="p_fa", type=float, default=1e-5)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--delta-f", dest="delta_f", type=float, default=1250.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.command = " ".join(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
