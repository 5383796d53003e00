"""Span tracer that wraps belldyn's public functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and op id.
Spans live in compact in-memory arrays and are written out once, when the
run ends. A layer's self time is its span duration minus the time covered
by its child spans.

A target is patched under every name that refers to it in any loaded
``belldyn`` module (``belldyn.dephasing.eigenvalues_sorted`` as well as
``belldyn.qstate.eigenvalues_sorted``), so calls are caught whichever module
looks the function up. A target that no longer exists is reported as absent
instead of failing the run. Wrappers are installed only for a traced phase
and removed after it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

#: span name -> (defining module, attribute paths). A dotted path such as
#: "SingleGaussian.kappa" patches a class attribute.
TARGETS = {
    "cli.main": ("belldyn.cli", ("main",)),
    "cli.run": ("belldyn.cli", ("run",)),
    "cli.series_from_points": ("belldyn.cli", ("series_from_points",)),
    "cli.write_sweep_csv": ("belldyn.cli", ("write_sweep_csv",)),
    "cli.read_sweep_csv": ("belldyn.cli", ("read_sweep_csv",)),
    "cli.landmarks_from_series": ("belldyn.cli", ("landmarks_from_series",)),
    "cli.write_noisy_csv": ("belldyn.cli", ("write_noisy_csv",)),
    "dephasing.sweep": ("belldyn.dephasing", ("sweep",)),
    "dephasing.kappa": (
        "belldyn.dephasing",
        ("SingleGaussian.kappa", "MultiGaussian.kappa", "SampledSpectrum.kappa"),
    ),
    "dephasing.evolve_state": ("belldyn.dephasing", ("evolve_state",)),
    "dephasing.effective_retardation": ("belldyn.dephasing", ("effective_retardation",)),
    "qstate.eigenvalues_sorted": ("belldyn.qstate", ("eigenvalues_sorted",)),
    "qstate.validate_bell_spectrum": ("belldyn.qstate", ("validate_bell_spectrum",)),
    "qstate.validate_state": ("belldyn.qstate", ("validate_state",)),
    "qstate.shannon_bits": ("belldyn.qstate", ("shannon_bits",)),
    "correlations.correlations_from_spectrum": (
        "belldyn.correlations", ("correlations_from_spectrum",)
    ),
    "tomography.simulate_counts": ("belldyn.tomography", ("simulate_counts",)),
    "tomography.TomographyRecord": ("belldyn.tomography", ("TomographyRecord.__init__",)),
    "tomography.reconstruct": ("belldyn.tomography", ("reconstruct",)),
    "tomography.minimize": ("belldyn.tomography", ("minimize",)),
    "tomography.error_bars": ("belldyn.tomography", ("error_bars",)),
    "oracle.oracle_quantum_correlation": ("belldyn.oracle", ("oracle_quantum_correlation",)),
    "oracle.oracle_classical_correlation": (
        "belldyn.oracle", ("oracle_classical_correlation",)
    ),
    "oracle.oracle_ree_bell": ("belldyn.oracle", ("oracle_ree_bell",)),
}

OP_SPAN = "op"


def _count_bytes(counters, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        counters["cli.write_sweep_csv.bytes"] += os.path.getsize(path)


def _count_resamples(counters, args, kwargs, result):
    counters["tomography.error_bars.resamples"] += int(
        kwargs.get("resamples", args[1] if len(args) > 1 else 0)
    )


def _count_iterations(counters, args, kwargs, result):
    counters["tomography.minimize.iters"] += int(getattr(result, "nit", 0))
    counters["tomography.minimize.nonconverged"] += int(not getattr(result, "success", True))


#: counters filled from a wrapped call's arguments or result, outside its span
COUNTERS = {
    "cli.write_sweep_csv": (("cli.write_sweep_csv.bytes",), _count_bytes),
    "tomography.error_bars": (("tomography.error_bars.resamples",), _count_resamples),
    "tomography.minimize": (
        ("tomography.minimize.iters", "tomography.minimize.nonconverged"), _count_iterations
    ),
}


class Tracer:
    """Records nested spans of wrapped calls, grouped by op."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        #: op ids in the order the ops ran
        self.op_ids: list[int] = []
        self.counters = {name: 0 for names, _ in COUNTERS.values() for name in names}
        self.present: set[str] = set()
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_idx.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self.op_ids.append(op_id)
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op_id = -1

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; targets that are gone stay absent."""
        defining = {}
        for module_name, _ in TARGETS.values():
            try:
                defining[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "belldyn" or n.startswith("belldyn."))]
        for name, (module_name, paths) in TARGETS.items():
            module = defining.get(module_name)
            if module is None:
                continue
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = None if owner is None else vars(owner).get(attr)
                    if original is None:
                        continue
                    self._patch(owner, attr, self._wrap(name, original))
                else:
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
                self.present.add(name)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns plus each span's self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        return {
            "name": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "self": duration - child_time,
        }

    def layer_totals(self, op_scale=None) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time) over every recorded span.

        `op_scale`, one factor per op in the order the ops ran, multiplies the
        self time of every span in that op (speed.scales gives it).
        """
        cols = self.arrays()
        self_time = cols["self"]
        if op_scale is not None:
            factor = dict(zip(self.op_ids, np.asarray(op_scale, dtype=float).tolist()))
            self_time = self_time * np.array([factor.get(op, 1.0) for op in cols["op"].tolist()])
        totals = {}
        for name_id, name in enumerate(self.names):
            mask = cols["name"] == name_id
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + int(mask.sum()), self_s + float(self_time[mask].sum()))
        return totals

    def write(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
