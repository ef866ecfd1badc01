import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from caseq import cli, factorlab, rachsim, seqforge, spectra
from caseq.cli import main


def run(args):
    return main(args)


class TestFactorize:
    def test_table_row_with_min_csd(self, capsys):
        assert run(["factorize", "--n", "288", "--kappa", "5",
                    "--min-csd", "24"]) == 0
        out = capsys.readouterr().out
        assert "size=255" in out and "csd=16" in out and "=120" in out

    def test_kappa_zero_prime_row(self, capsys):
        assert run(["factorize", "--n", "48", "--kappa", "0"]) == 0
        out = capsys.readouterr().out
        assert "{2,2,2,2,3}" in out and "size=2" in out

    def test_invalid_kappa_usage_error(self, capsys):
        assert run(["factorize", "--n", "7", "--kappa", "1"]) == 2

    def test_two_primes_merge_at_kappa_one(self, capsys):
        assert run(["factorize", "--n", "15", "--kappa", "1"]) == 0
        assert "factors={15}" in capsys.readouterr().out

    def test_json_mode(self, capsys):
        assert run(["factorize", "--n", "48", "--kappa", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["factor_set"] == [6, 8]
        assert data["family_size"] == 35

    def test_near_mode(self, capsys):
        assert run(["factorize", "--n", "288", "--kappa", "4",
                    "--mode", "near"]) == 0
        assert "size=168" in capsys.readouterr().out


class TestBuild:
    def test_adpma_139(self, tmp_path, capsys):
        decomp = tmp_path / "decomp.json"
        decomp.write_text('{"parts": [50, 45, 44]}')
        out = tmp_path / "fam.json"
        assert run(["build", "--n", "139", "--kind", "adpma", "--kappa", "1",
                    "--decomp", str(decomp), "--out", str(out)]) == 0
        assert "size=60" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["size"] == 60
        assert (tmp_path / "fam.json.manifest.json").exists()

    def test_hat_dpma_839(self, tmp_path, capsys):
        decomp = tmp_path / "decomp.json"
        decomp.write_text('{"parts": [396, 243, 200]}')
        out = tmp_path / "fam839.json"
        assert run(["build", "--n", "839", "--kind", "hat_dpma", "--kappa", "2",
                    "--decomp", str(decomp), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["size"] == 112

    def test_count_keeps_leading_members(self, tmp_path, capsys):
        out = tmp_path / "pma48.json"
        assert run(["build", "--n", "48", "--kind", "pma", "--count", "1",
                    "--out", str(out)]) == 0
        assert "size=1" in capsys.readouterr().out
        assert run(["verify", "--family", str(out),
                    "--out", str(tmp_path / "rep.json")]) == 0

    def test_infeasible_augmentation_exit_3(self, tmp_path):
        out = tmp_path / "nope.json"
        assert run(["build", "--n", "48", "--kind", "apma", "--alpha", "1/2",
                    "--gamma", "2", "--out", str(out)]) == 3

    def test_rebuild_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["build", "--n", "48", "--kind", "dpma", "--kappa", "2",
                        "--alpha", "1/2", "--gamma", "2", "--values",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def family48(tmp_path):
    out = tmp_path / "fam48.json"
    assert run(["build", "--n", "48", "--kind", "dpma", "--kappa", "3",
                "--alpha", "1/2", "--gamma", "2", "--out", str(out)]) == 0
    return out


class TestVerify:
    def test_verify_family(self, family48, capsys):
        assert run(["verify", "--family", str(family48), "--beta-cap", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["size"] == 35
        assert data["gram_max_offdiag"] <= 1e-9

    def test_missing_file_usage_error(self):
        assert run(["verify", "--family", "/nonexistent.json"]) == 2


class TestSpectrum:
    def test_slope_command(self, family48, capsys, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--family", str(family48),
                    "--slope", "--span", "32", "--points", str(2 ** 16),
                    "--fit-lo", "2", "--fit-hi", "12", "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "fitted_slope=" in msg
        slope = float(msg.split("fitted_slope=")[1].split()[0])
        assert slope < -4.0
        header = out.read_text().splitlines()[0]
        assert header == "normalized_freq,power_db"

    def test_eta_command(self, family48, capsys, tmp_path):
        out = tmp_path / "eta.csv"
        assert run(["spectrum", "--family", str(family48), "--eta",
                    "--span", "16", "--points", str(2 ** 14),
                    "--bandwidths", "0.5,1,2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "normalized_bandwidth,eta_db,family_kind"
        assert len(lines) == 4


def _csv_module_bytes(header, rows):
    """Reference: what the csv module writes for the rows, floats formatted by repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


class TestWriteCsv:
    @pytest.fixture(scope="class")
    def pma48(self):
        return seqforge.build_family(
            "pma", seqforge.WaveformConfig(n_seq=48, gamma=2, alpha=Fraction(1, 2)))

    def test_spectrum_over_three_blocks_and_a_tail(self, pma48, tmp_path):
        points = 3 * cli._CSV_BLOCK + 37
        columns = spectra.spectrum_csv_rows(spectra.compute_spectrum(pma48.sequences[0], 16.0,
                                                                     points))
        out, header = tmp_path / "spec.csv", ["normalized_freq", "power_db"]
        cli._write_csv(out, header, columns)
        rows = list(zip(*(c.tolist() for c in columns)))
        assert len(rows) == points
        assert out.read_bytes() == _csv_module_bytes(header, rows)

    def test_eta_csv_with_its_string_column(self, family48, tmp_path):
        out = tmp_path / "eta.csv"
        assert run(["spectrum", "--family", str(family48), "--eta",
                    "--bandwidths", "0.5,1,2", "--out", str(out)]) == 0
        fam = seqforge.family_from_dict(json.loads(family48.read_text()))
        rows = [(b, eta, fam.kind) for b, eta in spectra.out_of_band_fraction(fam, [0.5, 1.0, 2.0])]
        assert out.read_bytes() == _csv_module_bytes(
            ["normalized_bandwidth", "eta_db", "family_kind"], rows)

    def test_simulation_rows(self, pma48, tmp_path):
        cfg = rachsim.RaSimConfig(family=pma48, snr_db_list=[-4.0, 4.0], trials=500, seed=5,
                                  profile=rachsim.ChannelProfile.flat_fading(), p_fa_target=1e-2)
        rows = rachsim.result_csv_rows(rachsim.run_simulation(cfg))
        out, header = tmp_path / "sim.csv", ["snr_db", "metric", "mc_value", "ci_halfwidth",
                                             "closed_form"]
        cli._write_csv(out, header, list(zip(*rows)))
        assert out.read_bytes() == _csv_module_bytes(header, rows)

    def test_memory_does_not_grow_with_the_rows(self, pma48, tmp_path):
        """Writing 2^18 spectrum rows holds one block of Python values and text at a
        time (about 0.8 MiB at 4096 rows), not the rows: below 2 MiB, where a list of
        2^18 row tuples alone takes about 28 MiB."""
        columns = spectra.spectrum_csv_rows(spectra.compute_spectrum(pma48.sequences[0], 16.0,
                                                                     2 ** 18))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "spec.csv", ["normalized_freq", "power_db"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def _eta_argv(family48, out):
    return ["spectrum", "--family", str(family48), "--eta", "--bandwidths", "0.5,1,2",
            "--out", str(out)]


def _factorize_argv(out):
    return ["factorize", "--n", "288", "--kappa", "5", "--json", "--out", str(out)]


class TestRewriteInPlace:
    @pytest.mark.parametrize("csv_out", [False, True], ids=["json", "csv"])
    def test_longer_old_file_ends_at_the_new_bytes(self, family48, tmp_path, csv_out):
        # written over without O_TRUNC, then cut: no byte of the junk survives
        argv = (lambda out: _eta_argv(family48, out)) if csv_out else _factorize_argv
        fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
        assert run(argv(fresh)) == 0
        old.write_bytes(b"junk " * 4096)
        assert run(argv(old)) == 0
        assert len(fresh.read_bytes()) < 4 * 4096
        assert old.read_bytes() == fresh.read_bytes()

    def test_symlinked_out_updates_its_target(self, tmp_path):
        fresh, target, link = tmp_path / "fresh.json", tmp_path / "target.json", tmp_path / "link"
        assert run(_factorize_argv(fresh)) == 0
        target.write_bytes(b"junk " * 4096)
        link.symlink_to(target)
        assert run(_factorize_argv(link)) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()
        assert (tmp_path / "link.manifest.json").is_file()

    @pytest.mark.parametrize("via_link", [False, True], ids=["devnull", "link_to_devnull"])
    def test_no_manifest_beside_a_device(self, tmp_path, via_link):
        out = tmp_path / "null" if via_link else Path(os.devnull)
        if via_link:
            out.symlink_to(os.devnull)
        manifest = out.with_name(out.name + ".manifest.json")
        assert not manifest.exists()
        try:
            assert run(_factorize_argv(out)) == 0
            assert not manifest.exists()
        finally:
            # a build that still writes it (as root, into /dev) must not leave it behind
            manifest.unlink(missing_ok=True)


class TestSimulate:
    def test_simulate_writes_csv_and_manifest(self, family48, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--family", str(family48), "--profile", "ff",
                    "--snr", "0", "--trials", "4000", "--seed", "3",
                    "--p-fa", "1e-2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,metric,mc_value,ci_halfwidth,closed_form"
        assert (tmp_path / "sim.csv.manifest.json").exists()

    def test_simulate_rerun_identical(self, family48, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--family", str(family48), "--profile",
                        "umi", "--snr=-4,4", "--trials", "3000",
                        "--seed", "17", "--p-fa", "1e-2", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_profile_path(self, family48, tmp_path):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({
            "name": "custom",
            "taps": [{"delay_ns": 0, "power_db": 0},
                     {"delay_ns": 50, "power_db": -3}],
        }))
        assert run(["simulate", "--family", str(family48), "--profile",
                    str(prof), "--snr", "0", "--trials", "2000",
                    "--seed", "1", "--p-fa", "1e-2"]) == 0

    def test_malformed_family_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{""}")
        assert run(["simulate", "--family", str(bad), "--snr", "0",
                    "--trials", "10", "--seed", "1"]) == 2


def _family_edit(**fields):
    return lambda family: dict(json.loads(family.read_text()), **fields)


@pytest.mark.parametrize("argv,content", [
    (["verify", "--family", "{bad}"], _family_edit(nu_vectors=5)),
    (["verify", "--family", "{bad}"], lambda family: [1, 2]),
    (["verify", "--family", "{bad}"], _family_edit(sd_order_bound=9)),
    (["build", "--n", "139", "--kind", "hat_pma", "--decomp", "{bad}",
      "--out", "{out}"], lambda family: {"parts": 5}),
    (["simulate", "--family", "{family}", "--profile", "{bad}", "--snr", "0",
      "--trials", "10"], lambda family: {"name": "x", "taps": 5}),
    (["simulate", "--family", "{family}", "--profile", "{bad}", "--snr", "0",
      "--trials", "10"], lambda family: {"name": "x", "taps": [
          {"delay_ns": 0, "power_db": 0}, {"delay_ns": 50, "power_db": float("nan")}]}),
    *[(["simulate", "--family", "{family}", "--profile", "{bad}", "--snr", "0",
        "--trials", "10"], lambda family, db=db: {"name": "x", "taps": [
            {"delay_ns": 0, "power_db": db}]})
      for db in ("-inf", float("inf"), 5000)],  # total 0, inf (as 1e400 parses), overflow
], ids=["nu_vectors_int", "top_level_list", "sd_order_bound_edited",
        "decomp_parts_int", "profile_taps_int", "profile_power_nan",
        "profile_power_minus_inf", "profile_power_inf", "profile_power_overflow"])
def test_malformed_json_exits_2_with_one_line(family48, tmp_path, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content(family48)))
    paths = {"bad": bad, "family": family48, "out": tmp_path / "out.json"}
    _assert_exits_2_with_one_line([a.format(**paths) for a in argv])


def test_kappa_missing_for_adpma_exits_2_with_one_line(tmp_path):
    _assert_exits_2_with_one_line(["build", "--kind", "adpma", "--n", "139",
                                   "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("beta_cap", ["-1", "9"])
@pytest.mark.parametrize("cmd", ["build", "verify"])
def test_beta_cap_outside_domain_exits_2_with_one_line(family48, tmp_path, cmd, beta_cap):
    out = tmp_path / "out.json"
    argv = (["build", "--n", "48", "--kind", "pma", "--alpha", "1/2", "--gamma", "2",
             "--out", str(out)] if cmd == "build" else ["verify", "--family", str(family48)])
    _assert_exits_2_with_one_line([*argv, "--beta-cap", beta_cap])
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--j", "1"], ["--j", "0"], ["--p-fa", "0"],
                                 ["--p-fa", "2"], ["--beta", "-1"], ["--snr=nan"],
                                 ["--delta-f", "nan"], ["--seed", "-1"]],
                         ids=["j_1", "j_0", "p_fa_0", "p_fa_2", "beta_negative", "snr_nan",
                              "delta_f_nan", "seed_negative"])
def test_bad_simulate_config_exits_2_with_one_line(family48, bad):
    _assert_exits_2_with_one_line(["simulate", "--family", str(family48),
                                   "--trials", "10", *bad])


@pytest.mark.parametrize("argv", [
    ["--kind", "pma", "--n", "48", "--gamma", "2", "--alpha", "1/2", "--decomp", "{parts}"],
    ["--kind", "pma", "--n", "48", "--gamma", "2", "--alpha", "1/2", "--min-csd", "7"],
    ["--kind", "zc", "--n", "139", "--kappa", "2", "--count", "10", "--min-csd", "13"],
    ["--kind", "zc", "--n", "139", "--count", "10", "--min-csd", "0"],
    ["--kind", "zc", "--n", "139", "--count", "-1", "--min-csd", "13"],
], ids=["pma_decomp", "pma_min_csd", "zc_kappa", "zc_min_csd_0", "zc_count_negative"])
def test_recipe_argument_the_kind_ignores_exits_2_with_one_line(tmp_path, argv):
    parts, out = tmp_path / "p48.json", tmp_path / "out.json"
    parts.write_text('{"parts": [24, 24]}')
    _assert_exits_2_with_one_line(["build", *[a.format(parts=parts) for a in argv],
                                   "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--slope", "--eta"], []], ids=["both", "neither"])
def test_spectrum_needs_exactly_one_measurement_exits_2(family48, tmp_path, flags):
    out = tmp_path / "spec.csv"
    # both flags on a grid that resolves both measurements
    _assert_exits_2_with_one_line(["spectrum", "--family", str(family48), *flags,
                                   "--span", "32", "--points", str(2 ** 16),
                                   "--fit-hi", "12", "--out", str(out)])
    assert not out.exists()


def test_oversized_exhaustive_search_exits_2_with_one_line():
    # 11 distinct primes: more than 5e4 factor multisets at kappa 6
    _assert_exits_2_with_one_line(["factorize", "--n", "200560490130", "--kappa", "6",
                                   "--mode", "exhaustive"])


def test_unsettled_cofactor_exits_2_with_one_line():
    # a 17-digit prime: no factor up to the trial-division bound
    _assert_exits_2_with_one_line(["factorize", "--n", "10000000000000061"])


def test_oversized_chi_exits_2_with_one_line(tmp_path):
    # 8208 pma members of length 8209: 1.004 GiB of chi, refused before any row
    out = tmp_path / "big.json"
    _assert_exits_2_with_one_line(["build", "--n", "8209", "--kind", "pma", "--out", str(out)])
    assert not out.exists()
    # its leading 10 members take 1.3 MB and are built
    assert run(["build", "--n", "8209", "--kind", "pma", "--count", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["size"] == 10


def test_oversized_decomp_build_exits_2_before_any_search(monkeypatch, tmp_path):
    # 1024 hat_pma members of length 1000003 need 15.3 GiB of chi; no mpo search runs first
    monkeypatch.setattr(factorlab, "_top_split", lambda *a: pytest.fail("searched"))
    parts, out = tmp_path / "parts.json", tmp_path / "big.json"
    parts.write_text('{"parts": [500003, 300000, 200000]}')
    argv = ["build", "--n", "1000003", "--kind", "hat_pma", "--decomp", str(parts),
            "--out", str(out)]
    assert run(argv) == 2
    assert not out.exists()
    # one member passes the chi check, and it is built and exported with no search either
    assert run([*argv, "--count", "1"]) == 0
    assert out.stat().st_size < 1024


@pytest.mark.parametrize("cmd", ["build", "simulate"])
def test_rerun_manifest_identical_outside_run_block(family48, tmp_path, cmd):
    if cmd == "build":
        out = tmp_path / "fam.json"
        argv = ["build", "--n", "48", "--kind", "dpma", "--kappa", "2", "--alpha", "1/2",
                "--gamma", "2", "--out", str(out)]
    else:
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--family", str(family48), "--profile", "umi", "--snr=-4,4",
                "--trials", "2000", "--seed", "17", "--p-fa", "1e-2", "--out", str(out)]
    manifest = out.with_suffix(out.suffix + ".manifest.json")
    parts = []
    for _ in range(2):
        assert run(argv) == 0
        data = json.loads(manifest.read_text())
        assert set(data.pop("run")) == {"timestamp_utc"}
        assert data["command"] == " ".join(argv)
        parts.append(json.dumps(data, indent=2, sort_keys=True).encode())
    assert parts[0] == parts[1]
    if cmd == "simulate":
        # dpma48 is a flat family: tables from its recipe, white noise, and
        # its 48-column table is summed in one product at J = 35
        sim = json.loads(parts[0])["simulation"]
        assert (sim["leakage"], sim["noise"], sim["tap_sum"]) == ("recipe", "white", "product")
        assert sim["table_bytes"] == 8 * 48 * 16 + 35 * 35 * 8


def test_oversized_dense_tables_exit_2_with_one_line(tmp_path):
    # 30000 pn members: the dense leakage tables would take 114 GiB
    fam = tmp_path / "pn.json"
    fam.write_text(json.dumps({"kind": "pn", "n": 13, "gamma": 1, "alpha": "33/256",
                               "sd_order_bound": 0, "family_csd": 1, "size": 30000,
                               "min_csd": 1, "taps": [15, 14]}))
    _assert_exits_2_with_one_line(["simulate", "--family", str(fam), "--profile", "umi",
                                   "--trials", "2"])


@pytest.mark.parametrize("cmd", ["build", "verify"])
def test_oversized_gram_exits_2_with_one_line(tmp_path, cmd):
    # 30000 pn members: the complex Gram would take 13.4 GiB
    fam, out = tmp_path / "pn.json", tmp_path / "out.json"
    fam.write_text(json.dumps({"kind": "pn", "n": 13, "gamma": 1, "alpha": "33/256",
                               "sd_order_bound": 0, "family_csd": 1, "size": 30000,
                               "min_csd": 1, "taps": [15, 14]}))
    argv = (["build", "--n", "13", "--kind", "pn", "--count", "30000", "--min-csd", "1",
             "--out", str(out)] if cmd == "build" else ["verify", "--family", str(fam)])
    _assert_exits_2_with_one_line(argv)
    assert not out.exists()


def test_oversized_spectrum_grid_exits_2_with_one_line(family48, tmp_path):
    # 10^12 points: 22 TiB of grid arrays, refused before any is allocated
    out = tmp_path / "spec.csv"
    _assert_exits_2_with_one_line(["spectrum", "--family", str(family48), "--slope",
                                   "--points", str(10 ** 12), "--out", str(out)])
    assert not out.exists()


def test_eta_runs_on_a_long_pn_member(tmp_path):
    # N = 4001, where N x N kernels (72 N^2 bytes) would take more than 1 GiB
    fam, out = tmp_path / "pn.json", tmp_path / "eta.csv"
    fam.write_text(json.dumps({"kind": "pn", "n": 4001, "gamma": 1, "alpha": "33/256",
                               "sd_order_bound": 0, "family_csd": 1, "size": 1,
                               "min_csd": 1, "taps": [15, 14]}))
    assert run(["spectrum", "--family", str(fam), "--eta", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert all(math.isfinite(float(eta_db)) for _, eta_db, _ in rows)


@pytest.mark.parametrize("bad", [["--eta", "--bandwidths", "nan,1"],
                                 ["--eta", "--bandwidths", "0,1"],
                                 ["--slope", "--fit-lo", "nan"],
                                 ["--slope", "--fit-hi", "nan"]],
                         ids=["bandwidth_nan", "bandwidth_0", "fit_lo_nan", "fit_hi_nan"])
def test_bad_spectrum_measurement_exits_2_with_one_line(family48, tmp_path, bad):
    out = tmp_path / "out.csv"
    _assert_exits_2_with_one_line(["spectrum", "--family", str(family48), *bad,
                                   "--span", "32", "--points", str(2 ** 16),
                                   "--out", str(out)])
    assert not out.exists()


def _assert_exits_2_with_one_line(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "caseq.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
