"""Span tracer that wraps multiwell's public functions from outside the package.

The library modules import these functions from each other by name
(`from .spectrum import solve_numerical`), so a function is wrapped in every
multiwell module namespace that binds it.  Wrappers are installed only while
a traced op runs and removed afterwards, so untraced ops and the output
checks run the plain library.  Polynomial.__call__ is left alone: it runs
about 1e5 times per op and would swamp the trace.

Spans (name, start, end, parent, op id) are kept in compact arrays, written
out with `save`, and reduced by `summary`: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = (
    "polynomial.real_roots",
    "wells.build_symmetric",
    "wells.critical_points",
    "wells.harmonic_wells",
    "spectrum.solve_numerical",
    "spectrum.well_weights",
    "spectrum.classify_levels",
    "spectrum.harmonic_spectrum_n2",
    "crossings.solve_crossing",
    "crossings.relocalization_scan",
    "crossings.asym_locus_cubic",
    "cli.main",
)
ROOT_SPAN = "op"  # one per traced op, opened by the benchmark around the op


class Tracer:
    def __init__(self, package: str = "multiwell", names=TRACED):
        self.names = (ROOT_SPAN,) + tuple(names)
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = 0  # sum of grid_points * num_levels over solve_numerical calls
        self._stack: list[int] = []
        self._op_id = -1
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for span_id, name in enumerate(self.names[1:], start=1):
            module, func = name.split(".")
            original = getattr(sys.modules[f"{package}.{module}"], func)
            wrapper = self._wrap(span_id, original,
                                 counts_work=name == "spectrum.solve_numerical")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _open(self, span_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(span_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, span_id: int, fn, counts_work: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_work:
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                self.work += cfg.grid_points * cfg.num_levels
            idx = self._open(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    @contextmanager
    def installed(self, op_id: int):
        """Trace one op: wrappers in place, everything under one root span."""
        self._op_id = op_id
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    @property
    def bound_names(self) -> list[str]:
        """`module.attribute` of every namespace binding that gets wrapped."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._bindings)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op calls and self seconds of every traced function, and the
        counts built from them."""
        a = self.arrays()
        name_id, parent = a["name_id"], a["parent"]
        self_s = self_times(a["start"], a["end"], parent)
        out: dict[str, float] = {}
        calls = {}
        for span_id, name in enumerate(self.names[1:], start=1):
            mask = name_id == span_id
            calls[name] = int(mask.sum())
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_s"] = float(self_s[mask].sum()) / ops
        out["spectrum.solve_numerical.work"] = self.work / ops
        ids = {name: i for i, name in enumerate(self.names)}
        has_parent = parent >= 0
        parent_name = np.full(len(parent), -1)
        parent_name[has_parent] = name_id[parent[has_parent]]
        residual_evals = int((((name_id == ids["spectrum.solve_numerical"])
                               | (name_id == ids["spectrum.harmonic_spectrum_n2"]))
                              & (parent_name == ids["crossings.solve_crossing"])).sum())
        solves = calls["crossings.solve_crossing"]
        out["crossings.residual_evals_per_solve"] = (
            residual_evals / solves if solves else 0.0)
        eigensolves = calls["spectrum.solve_numerical"]
        out["wells.critical_points_per_eigensolve"] = (
            calls["wells.critical_points"] / eigensolves if eigensolves else 0.0)
        return out


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered
