#!/usr/bin/env python3
"""caseq benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload family_tables --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; caseq is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from
alternating untraced and traced passes.  ``--smoke`` runs the workload
at a tiny size.  A run record (environment, failures, raw fidelity
values) and, for traced runs, the spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path

from harness import Run, Tracer, median, pass_metrics, pass_wall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("factorlab", "seqforge", "seqverify", "spectra", "rachsim", "cli", "_kernels")
SETUP_REPEATS = 3


def _import_caseq() -> types.SimpleNamespace:
    """Import caseq afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "caseq" or n.startswith("caseq.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"caseq.{m}") for m in MODULES}
    mods["kernels"] = mods.pop("_kernels")
    return types.SimpleNamespace(package=sys.modules["caseq"], **mods)


def _clear_caches(cq):
    """Empty caseq's memo caches, so each pass does the same work."""
    for mod in (cq.factorlab, cq.seqforge, cq.seqverify, cq.spectra, cq.rachsim):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _environment(cq, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    kernel = getattr(cq.kernels, "spectrum_power", None)
    return {
        "python": sys.version, "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "kernel_compiled": getattr(cq.kernels, "COMPILED", None),
        "kernel_module": getattr(kernel, "__module__", None),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("CA_SEQFORGE_THREADS",)},
    }


def _setup(workload, args, workdir: Path, setup_times: list[float]):
    """Import caseq afresh and build the inputs, ``SETUP_REPEATS`` times.

    Set-ups run before every pass, so their median spans the whole run
    like the pass times do.
    """
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        start = time.perf_counter()
        cq = _import_caseq()
        inputs = workload.setup(cq, args.seed, args.smoke, workdir)
        setup_times.append(time.perf_counter() - start)
    return cq, inputs


def _measure(workload, args, workdir: Path, run, setup_times: list[float]):
    """Repeat set-up and pass while the next pass fits in ``--seconds``."""
    untraced, traced = [], []
    peak_rss_mib = None
    start = time.perf_counter()
    while True:
        # drop the previous pass's modules and inputs first, so that peak
        # memory does not depend on how many passes fit in the run
        cq = inputs = None
        gc.collect()
        cq, inputs = _setup(workload, args, workdir, setup_times)
        if not Path(cq.package.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: caseq imported from {cq.package.__file__}")
        is_traced = args.trace and run.pass_index % 2 == 1
        _clear_caches(cq)
        run.tracer = Tracer()
        if is_traced:
            run.tracer.install(cq.package)
        try:
            workload.run_pass(run, cq, inputs)
        finally:
            run.tracer.uninstall()
        spans = run.tracer.spans
        if is_traced:
            traced.append((pass_wall(spans), *pass_metrics(spans), spans))
        else:
            untraced.append(pass_wall(spans))
            run.untraced_ops.append([s.duration for s in spans if s.parent < 0])
        if peak_rss_mib is None:
            # after set-up and one pass: the high-water mark creeps up with
            # each further pass, and their number varies with machine speed
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.pass_index += 1
        elapsed = time.perf_counter() - start
        enough = run.pass_index >= (2 if args.trace else 1)
        if enough and elapsed * (1 + 1 / run.pass_index) > args.seconds:
            return cq, untraced, traced, peak_rss_mib


def _traced_metrics(run, untraced, traced) -> dict:
    times = {k: median([t[1][k] for t in traced]) for k in traced[0][1]}
    counts = traced[0][2]
    with run.operation("trace.counts") as op:
        for _, _, other, _ in traced[1:]:
            op.expect(other == counts, f"counts differ across passes: {counts} {other}")
    rates = [(t[2]["rachsim.trials"], t[1]["rachsim.run_simulation_s"],
              t[2]["kernels.terms"], t[1]["kernels.spectrum_power_s"]) for t in traced]
    metrics = {k: (v, "s") for k, v in times.items()}
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({
        "trials_per_s": (median([tr / s if s else 0.0 for tr, s, _, _ in rates]), "1/s"),
        "kernels.terms_per_s": (median([te / s if s else 0.0 for _, _, te, s in rates]), "1/s"),
        "kernels.bytes_computed": (16 * counts["kernels.terms"], "B"),
        "trace.overhead_s": (median([t[0] for t in traced]) - median(untraced), "s"),
        "kernels.oracle_max_rel_err": (run.fidelity.get("kernels.oracle_max_rel_err", 0.0), "1"),
        "spectra.total_power_rel_err": (run.fidelity.get("spectra.total_power_rel_err", 0.0), "1"),
        "rachsim.mc_max_abs_z": (run.fidelity.get("rachsim.mc_max_abs_z", 0.0), "sigma"),
    })
    for label in ("zc139", "pma48", "dpma48_k1", "dpma48_k2", "dpma48_k3"):
        metrics[f"spectra.slope.{label}"] = (run.fidelity.get(f"spectra.slope.{label}", 0.0), "1")
    for metric in ("p_fa", "p_fid", "p_c"):
        metrics[f"rachsim.z.{metric}"] = (run.fidelity.get(f"rachsim.z.{metric}", 0.0), "sigma")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "caseq" / "__init__.py").is_file():
        print(f"error: no caseq sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread unless the environment says otherwise: with a
    # pool on a shared machine every BLAS call waits for the slower core,
    # which doubled the run-to-run spread of rach_id on a 2-vCPU guest.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import numpy as np  # after the thread limits, which BLAS reads at load
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    setup_times: list[float] = []
    run = Run(args.seed)
    try:
        cq, untraced, traced, peak_rss_mib = _measure(workload, args, workdir, run, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = _traced_metrics(run, untraced, traced)
    else:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "wall_s": (median(untraced), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": _environment(cq, np),
        "setup_s": setup_times, "untraced_pass_s": untraced,
        "untraced_op_s": run.untraced_ops,
        "traced_pass_s": [t[0] for t in traced],
        "attempted": run.attempted, "failures": run.failures,
        "fidelity": run.fidelity, "raw": run.raw,
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if traced:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(
            [[[s.name, s.layer, s.start, s.end, s.parent] for s in t[3]] for t in traced]))
    print(f"record: {OUT / f'record-{tag}.json'}")
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
