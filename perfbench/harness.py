"""Span tracer and per-operation bookkeeping for the caseq benchmark.

The tracer wraps public layer functions of caseq from outside the package:
it swaps each function object for a timing wrapper in every loaded caseq
module that refers to it, and puts the originals back afterwards.  Spans
are kept in memory as (name, layer, start, end, parent, counts) and only
written out when the run ends.  Spans are recorded only inside an
operation opened by the benchmark, so checks made between operations do
not show up as layer time.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _length(args, kwargs, result):
    first = args[0] if args else None
    n = getattr(first, "n", first)
    return {"length": n} if isinstance(n, int) else None


def _members(args, kwargs, result):
    return {"members": len(result) if hasattr(result, "__len__") else 1}


def _member(args, kwargs, result):
    return {"members": 1}


def _terms(args, kwargs, result):
    freqs, amps = args[0], args[1]
    return {"terms": len(freqs) * len(amps), "points": len(freqs)}


def _trials(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    trials = 2 * cfg.trials * len(cfg.snr_db_list)
    return {"trials": trials, "correlations": trials * cfg.j_sequences}


# Public functions wrapped per layer, with an optional work counter.  A name
# that a module no longer defines is skipped, so removing a function from
# caseq does not break the benchmark.
LAYER_FUNCTIONS = {
    "factorlab": {
        "exclusive_search_proper": _length,
        "proper_factorization_kappa1": _length,
        "proper_factorization_kappa2": _length,
        "near_proper_factorization": _length,
        "mpo_value": _length,
        "mpo_decompose": _length,
        "available_with_min_csd": _length,
    },
    "seqforge": {
        "build_family": _members,
        "augment_family": _members,
        "build_multiroot_zc_family": _members,
        "build_pn_family": _members,
        "build_zc_sequence": _member,
        "family_to_dict": None,
        "family_from_dict": _members,
        "Family.q_matrix": None,
    },
    "seqverify": {
        "check_family": None,
        "gram_matrix": None,
        "check_zac": None,
        "measure_sd_order": None,
    },
    "_kernels": {"spectrum_power": _terms},
    "spectra": {
        "compute_spectrum": None,
        "estimate_decay_order": None,
        "out_of_band_fraction": None,
        "spectrum_csv_rows": None,
    },
    "rachsim": {
        "run_simulation": _trials,
        "closed_form_metrics": None,
        "interference_variances": None,
    },
}

LAYERS = ("factorlab", "seqforge", "seqverify", "_kernels", "spectra",
          "rachsim", "cli")


def _caseq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "caseq" or name.startswith("caseq."))]


class Tracer:
    """Collects spans; wraps caseq's layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        idx = len(self.spans)
        self.spans.append(Span(name, layer, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end

    def _wrap(self, qualname: str, layer: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = Span(qualname, layer, 0.0, 0.0, tracer._stack[-1])
            tracer.spans.append(span)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.start = start
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every listed function that exists in the loaded caseq."""
        modules = _caseq_modules()
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(package, layer, None)
            if module is None:
                continue
            for name, counter in names.items():
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name, None)
                    fn = getattr(owner, attr, None) if owner is not None else None
                    if fn is None:
                        continue
                    self._patch(owner, attr, self._wrap(
                        f"{layer}.{name}", layer, fn, counter))
                    continue
                fn = getattr(module, name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


@contextmanager
def patched(owner, attr: str, value):
    """Temporarily replace ``owner.attr``; used for output taps."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Operation:
    """One checked unit of work; timed calls run inside benchmark spans."""

    def __init__(self, run: "Run", name: str):
        self.run = run
        self.name = name
        self.problems: list[str] = []

    def timed(self, stage: str, fn, *args, layer: str = "bench", **kwargs):
        with self.run.tracer.span(stage, layer):
            return fn(*args, **kwargs)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def same_as_first_pass(self, key: str, *arrays_or_text):
        """Later passes must reproduce the first pass's output bit for bit."""
        digest = hashlib.sha256()
        for item in arrays_or_text:
            digest.update(item.encode() if isinstance(item, str) else item.tobytes())
        value = digest.hexdigest()
        first = self.run.first_digests.setdefault(f"{self.name}/{key}", value)
        self.expect(first == value, f"{key}: output differs from the first pass")


class Run:
    """Operation counts, failures and fidelity values of one benchmark run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[dict] = []
        self.first_digests: dict[str, str] = {}
        self.pass_index = 0
        #: durations of the timed calls of each untraced pass
        self.untraced_ops: list[list[float]] = []
        #: fidelity values (first pass), reported as per-layer metrics
        self.fidelity: dict[str, float] = {}
        #: raw diagnostics written to the run record
        self.raw: dict[str, list] = {}

    @contextmanager
    def operation(self, name: str):
        self.attempted += 1
        op = Operation(self, name)
        try:
            yield op
        except Exception:  # a failing operation must not stop the run
            op.problems.append(traceback.format_exc(limit=4))
        if op.problems:
            self.failures.append({"op": name, "pass": self.pass_index,
                                  "problems": op.problems})

    def record(self, key: str, entry):
        if self.pass_index == 0:
            self.raw.setdefault(key, []).append(entry)

    def fidelity_max(self, key: str, value: float):
        self.fidelity[key] = max(self.fidelity.get(key, 0.0), value)


# ---------------------------------------------------------------- analysis

def _children_time(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return covered


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


STAGES = ("factor_table", "family_table", "slope_fig", "eta_table")
CLI_FLOWS = ("factorize", "build", "verify", "spectrum")


def pass_wall(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent < 0)


def pass_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer timings and exact counts derived from one traced pass."""
    covered = _children_time(spans)
    self_time = [s.duration - c for s, c in zip(spans, covered)]

    def inclusive(*names):
        return sum(s.duration for s in _outermost(spans, set(names)))

    def self_of(*names):
        return sum(t for s, t in zip(spans, self_time) if s.name in names)

    def count(key, *names):
        return sum((s.counts or {}).get(key, 0)
                   for s in _outermost(spans, set(names)))

    fl = "factorlab."
    build = ("seqforge.build_family", "seqforge.augment_family",
             "seqforge.build_multiroot_zc_family", "seqforge.build_pn_family",
             "seqforge.build_zc_sequence")
    times = {f"{stage}_s": sum(s.duration for s in spans
                               if s.parent < 0 and s.name == stage)
             for stage in STAGES}
    times.update({f"cli.{flow}_s": inclusive(f"cli.{flow}") for flow in CLI_FLOWS})
    times.update({
        "factorlab.search_s": inclusive(
            fl + "exclusive_search_proper", fl + "proper_factorization_kappa1",
            fl + "proper_factorization_kappa2", fl + "near_proper_factorization"),
        "factorlab.mpo_decompose_s": inclusive(fl + "mpo_decompose"),
        "seqforge.build_s": inclusive(*build),
        "seqforge.json_roundtrip_s": inclusive("seqforge.family_to_dict",
                                               "seqforge.family_from_dict"),
        "seqforge.q_matrix_s": inclusive("seqforge.Family.q_matrix"),
        "seqverify.check_family_s": inclusive("seqverify.check_family"),
        "seqverify.gram_s": inclusive("seqverify.gram_matrix"),
        "seqverify.zac_s": inclusive("seqverify.check_zac"),
        "seqverify.sd_order_s": inclusive("seqverify.measure_sd_order"),
        "kernels.spectrum_power_s": inclusive("_kernels.spectrum_power"),
        "spectra.compute_spectrum_self_s": self_of("spectra.compute_spectrum"),
        "spectra.decay_fit_s": inclusive("spectra.estimate_decay_order"),
        "spectra.out_of_band_self_s": self_of("spectra.out_of_band_fraction"),
        "rachsim.run_simulation_s": inclusive("rachsim.run_simulation"),
        "rachsim.mc_self_s": self_of("rachsim.run_simulation"),
        "rachsim.closed_form_s": inclusive("rachsim.closed_form_metrics"),
        "rachsim.interference_variances_s": inclusive("rachsim.interference_variances"),
    })
    for layer in LAYERS:  # metric names start with a letter: _kernels -> kernels
        times[f"{layer.lstrip('_')}.self_s"] = sum(
            t for s, t in zip(spans, self_time) if s.layer == layer)

    lengths = {s.counts["length"] for s in spans
               if s.layer == "factorlab" and s.counts and "length" in s.counts}
    counts = {
        "factorlab.lengths": len(lengths),
        "seqforge.members": count("members", *build, "seqforge.family_from_dict"),
        "kernels.terms": count("terms", "_kernels.spectrum_power"),
        "rachsim.trials": count("trials", "rachsim.run_simulation"),
        "rachsim.correlations": count("correlations", "rachsim.run_simulation"),
        "trace.spans": len(spans),
    }
    return times, counts


def median(values):
    return statistics.median(values) if values else 0.0
