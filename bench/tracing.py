"""In-memory span recorder for the traced benchmark run.

The recorder wraps ybion's public functions from outside, at every name a
caller looks them up by: `spectro.simulate_scan` calls its own imported
`build_rate_matrix`, the CLI calls its own imported copies, and the
benchmark calls the defining module's attribute. Nothing under src/ is
edited; `Tracer.installed()` swaps the attributes in and restores them.

A span is [name, start_ns, end_ns, parent_index, op_id, units, status].
Spans of one benchmark operation share op_id. status is OK, ERROR (the call
raised) or REJECTED (it returned a result its hook marks as unusable, such
as an unconverged fit). A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

OK, ERROR, REJECTED = 0, 1, 2


def _scan_units(args, kwargs):
    grid = args[3] if len(args) > 3 else kwargs["detunings_hz"]
    return "spectro.scan", len(grid)


def _sequence_units(args, kwargs):
    config = args[0] if args else kwargs["config"]
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    name = "mc.sequence_fail" if config.failure_prob > 0 else "mc.sequence"
    return name, int(trials)


def _fit_status(fit):
    return OK if fit.converged else REJECTED


# (owner, attribute, span name). The owner is a module, or "module:Class"
# for a method. Span names are "<layer>.<stage>" with the layer named after
# the ybion module that defines the function.
WRAPPED = [
    ("ybion.scheme", "load_scheme_file", "scheme.load"),
    ("ybion.scheme:LevelScheme", "with_drive", "scheme.edit"),
    ("ybion.scheme:LevelScheme", "with_all_drives_saturated", "scheme.edit"),
    ("ybion.rates", "build_rate_matrix", "rates.build"),
    ("ybion.rates", "steady_state", "rates.steady"),
    ("ybion.rates", "evolve", "rates.evolve"),
    ("ybion.spectro", "build_rate_matrix", "rates.build"),
    ("ybion.spectro", "steady_state", "rates.steady"),
    ("ybion.spectro", "simulate_scan", "spectro.scan"),
    ("ybion.spectro", "fit_lorentzian", "spectro.fit"),
    ("ybion.spectro", "lifetime_from_linewidth", "spectro.lifetime"),
    ("ybion.photoion", "cross_section", "photoion.xsec"),
    ("ybion.photoion", "photon_flux", "photoion.flux"),
    ("ybion.photoion", "ionization_rate", "photoion.rate"),
    ("ybion.photoion", "fit_quantum_defect", "photoion.defect_fit"),
    ("ybion.crystal", "infer_eta", "crystal.infer_eta"),
    ("ybion.mc", "infer_eta", "crystal.infer_eta"),
    ("ybion.mc", "infer_charge", "crystal.infer_charge"),
    ("ybion.mc", "simulate_ionization_times", "mc.sequence"),
    ("ybion.mc", "summarize_times", "mc.summarize"),
    ("ybion.mc", "runs_to_text", "mc.export"),
    ("ybion.mc", "synthesize_verification", "mc.synthesize"),
    ("ybion.mc", "infer_from_verification", "mc.infer"),
    ("ybion.cli", "main", "cli.main"),
    ("ybion.cli", "load_scheme_file", "scheme.load"),
    ("ybion.cli", "build_rate_matrix", "rates.build"),
    ("ybion.cli", "steady_state", "rates.steady"),
    ("ybion.cli", "simulate_scan", "spectro.scan"),
    ("ybion.cli", "fit_lorentzian", "spectro.fit"),
    ("ybion.cli", "lifetime_from_linewidth", "spectro.lifetime"),
    ("ybion.cli", "cross_section", "photoion.xsec"),
    ("ybion.cli", "photon_flux", "photoion.flux"),
    ("ybion.cli", "ionization_rate", "photoion.rate"),
    ("ybion.cli", "fit_quantum_defect", "photoion.defect_fit"),
    ("ybion.cli", "infer_eta", "crystal.infer_eta"),
    ("ybion.cli", "infer_charge", "crystal.infer_charge"),
    ("ybion.cli", "simulate_ionization_times", "mc.sequence"),
    ("ybion.cli", "summarize_times", "mc.summarize"),
    ("ybion.cli", "runs_to_text", "mc.export"),
    ("ybion.cli", "synthesize_verification", "mc.synthesize"),
    ("ybion.cli", "infer_from_verification", "mc.infer"),
]

# Per span name: (args, kwargs) -> (span name, work units) and result -> status.
UNITS_HOOKS = {"spectro.scan": _scan_units, "mc.sequence": _sequence_units}
STATUS_HOOKS = {"spectro.fit": _fit_status}


@dataclass
class Aggregate:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    units: int = 0
    errors: int = 0
    rejected: int = 0


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Collects spans while installed; aggregates them per span name."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def _open(self, name: str, units: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op_id, units, OK])
        self._stack.append(index)
        return index

    def _close(self, index: int, status: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter_ns()
        span[6] = status
        self._stack.pop()

    @contextmanager
    def span(self, name: str, units: int = 0):
        """Span around a block of benchmark code, e.g. one operation."""
        index = self._open(name, units)
        status = ERROR
        try:
            yield
            status = OK
        finally:
            self._close(index, status)

    def _wrap(self, name: str, fn):
        units_hook = UNITS_HOOKS.get(name)
        status_hook = STATUS_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, units = (
                units_hook(args, kwargs) if units_hook else (name, 0)
            )
            index = self._open(span_name, units)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, ERROR)
                raise
            self._close(index, status_hook(result) if status_hook else OK)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED; restore the originals on exit."""
        originals = []
        try:
            for owner, attr, name in WRAPPED:
                target = _resolve(owner)
                fn = target.__dict__[attr]
                originals.append((target, attr, fn))
                setattr(target, attr, self._wrap(name, fn))
            yield self
        finally:
            for target, attr, fn in reversed(originals):
                setattr(target, attr, fn)

    def aggregate(self) -> dict[str, Aggregate]:
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, Aggregate] = {}
        for i, (name, start, end, _, _, units, status) in enumerate(self.spans):
            agg = out.setdefault(name, Aggregate())
            agg.calls += 1
            agg.total_ns += end - start
            agg.self_ns += end - start - child_ns[i]
            agg.units += units
            agg.errors += status == ERROR
            agg.rejected += status == REJECTED
        return out
