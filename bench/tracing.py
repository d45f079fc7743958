"""Span tracing of relayswipt from outside the package.

``Tracer.install`` wraps the public functions of each layer (module) of
``relayswipt`` and patches every module attribute that refers to them, so a
call is recorded whichever module the caller looks the name up in (for
example ``relayswipt.simulate.frames_from_uniforms`` as well as
``relayswipt.model.frames_from_uniforms``).  Only calls made inside an
operation (``Tracer.op``) are recorded, so input generation and output
checks leave no spans.

Spans are kept in memory as rows of int64 (``COLUMNS``): span id, name id,
op id, parent span id (-1 for an op's root), start and end in ns, the frames
the call processed (MC stages only) and the bytes of the array it returned.
A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from array import array

import numpy as np

LAYERS = ("model", "schemes", "specfun", "closedform", "frontier", "simulate", "cli")
COLUMNS = ("id", "name", "op", "parent", "start_ns", "end_ns", "frames", "bytes")
_ID, _NAME, _OP, _PARENT, _T0, _T1, _FRAMES, _BYTES = range(len(COLUMNS))


def _arg(index, name):
    def pick(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]
    return pick


def _targets():
    """(layer, function name, frame-count function or None) for each wrapped callable."""
    from relayswipt import closedform, frontier

    mc, count, u, snr = _arg(2, "mc"), _arg(3, "count"), _arg(1, "u"), _arg(1, "snr")
    out = [
        ("simulate", "run", lambda a, k: mc(a, k).n_frames),
        ("simulate", "frame_uniforms", count),
        ("model", "frames_from_uniforms", lambda a, k: np.shape(u(a, k))[0]),
        ("schemes", "select_indices", lambda a, k: np.shape(snr(a, k))[0]),
        ("specfun", "exp_e1_scaled", None),
        ("specfun", "exp_integral_e1", None),
        ("specfun", "harmonic", None),
        ("cli", "main", None),
    ]
    for name in closedform.__all__:
        value = getattr(closedform, name, None)
        if callable(value) and not isinstance(value, type):
            out.append(("closedform", name, None))
    for name in ("capacity_frontier", "outage_frontier", "pareto_capacity_point",
                 "solve_zeta_for_energy", "_capacity_policy_integrals"):
        if hasattr(frontier, name):
            out.append(("frontier", name, None))
    return out


class Tracer:
    """Records spans at the layer boundaries of relayswipt."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.absent: list[str] = []
        self._rows = array("q")
        self._next_id = 0
        self._op = None
        self._stack: list[int] = []
        self._main = threading.main_thread()
        self._patched: list = []

    def install(self) -> "Tracer":
        import relayswipt
        import relayswipt.cli  # noqa: F401  (loads the submodule)

        if not hasattr(relayswipt.frontier, "_capacity_policy_integrals"):
            self.absent.append("frontier._capacity_policy_integrals")
        modules = [relayswipt] + [getattr(relayswipt, m) for m in LAYERS]
        for layer, fname, frames in _targets():
            original = getattr(getattr(relayswipt, layer), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, frames)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, frames):
        name_id = len(self.names)
        self.names.append(name)
        rows = self._rows
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            # Worker threads keep no stack; their spans hang off the
            # innermost span open on the main thread.
            on_main = threading.current_thread() is self._main
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            if on_main:
                stack.append(span_id)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if on_main:
                    stack.pop()
                rows.extend((span_id, name_id, op, parent, t0, t1,
                             int(frames(args, kwargs)) if frames else 0,
                             int(getattr(result, "nbytes", 0) or 0)))
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record every span of one benchmark operation under ``op_id``."""
        span_id = self._next_id
        self._next_id += 1
        self._op = op_id
        self._stack[:] = [span_id]
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._op = None
            self._stack.clear()
            self._rows.extend((span_id, 0, op_id, -1, t0, t1, 0, 0))

    def count(self) -> int:
        """Number of spans recorded."""
        return len(self._rows) // len(COLUMNS)

    def spans(self) -> np.ndarray:
        """All spans as an (n, 8) int64 array whose row i is span id i."""
        rows = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, len(COLUMNS))
        out = np.empty_like(rows)
        out[rows[:, _ID]] = rows
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names),
                            columns=np.array(COLUMNS))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time in ns of each span: duration minus its children's coverage."""
    dur = spans[:, _T1] - spans[:, _T0]
    child = spans[spans[:, _PARENT] >= 0]
    covered = np.bincount(child[:, _PARENT], weights=child[:, _T1] - child[:, _T0],
                          minlength=len(spans)).astype(np.int64)
    # Children overlap only when they ran on worker threads; take the union there.
    child = child[np.lexsort((child[:, _T0], child[:, _PARENT]))]
    overlap = (child[1:, _PARENT] == child[:-1, _PARENT]) & (child[1:, _T0] < child[:-1, _T1])
    for parent in np.unique(child[1:][overlap, _PARENT]):
        total, end = 0, spans[parent, _T0]
        for c0, c1 in child[child[:, _PARENT] == parent][:, [_T0, _T1]]:
            c0, c1 = max(c0, end), min(c1, spans[parent, _T1])
            if c1 > c0:
                total, end = total + c1 - c0, c1
        covered[parent] = total
    return dur - covered


def _per(total, count):
    return float(total) / count if count else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, cli_bytes: int, stage_times: bool) -> dict:
    """Per-layer metrics from the recorded spans; zero for layers not reached.

    Counts are per operation.  ``stage_times`` False (the MC engine used
    more threads than there are cores, so stage times measure contention)
    reports the per-frame stage times as zero and keeps the counts.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    dur = spans[:, _T1] - spans[:, _T0]
    names = tracer.names
    name_of = spans[:, _NAME]
    layer_ids = {layer: i for i, layer in enumerate(("op",) + LAYERS)}
    layer_of_name = np.array([layer_ids[n.split(".", 1)[0]] for n in names])
    layer = layer_of_name[name_of]
    parent = spans[:, _PARENT]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    outer = layer != parent_layer  # not nested in a span of the same layer

    def pick(name):
        return name_of == (names.index(name) if name in names else -1)

    def family(layer_name, prefixes=("",)):
        fns = [i for i, n in enumerate(names) if n.startswith(tuple(
            f"{layer_name}.{p}" for p in prefixes))]
        return np.isin(name_of, fns) & outer

    run, draw = pick("simulate.run"), pick("simulate.frame_uniforms")
    transform, select = pick("model.frames_from_uniforms"), pick("schemes.select_indices")
    frames = spans[:, _FRAMES]
    cap, out = family("closedform", ("c_",)), family("closedform", ("outage_", "pareto_"))
    specfun = layer == layer_ids["specfun"]
    points, solves = pick("frontier.pareto_capacity_point"), pick("frontier.solve_zeta_for_energy")
    main = pick("cli.main")
    stage = 1.0 if stage_times else 0.0

    return {
        "simulate.draw_ns_per_frame": stage * _per(selfs[draw].sum(), frames[draw].sum()),
        "simulate.draw_bytes_per_frame": _per(spans[draw, _BYTES].sum(), frames[draw].sum()),
        "model.transform_ns_per_frame":
            stage * _per(selfs[transform].sum(), frames[transform].sum()),
        "schemes.select_ns_per_frame": stage * _per(selfs[select].sum(), frames[select].sum()),
        "simulate.self_ns_per_frame": stage * _per(selfs[run].sum(), frames[run].sum()),
        "simulate.run_ms": float(np.median(dur[run])) / 1e6 if run.any() else 0.0,
        "simulate.runs": _per(run.sum(), n_ops),
        "simulate.frames": _per(frames[run].sum(), n_ops),
        "simulate.frames_per_s": _per(frames[run].sum(), dur[run].sum() / 1e9),
        "simulate.parallelism":
            stage * _per(dur[draw | transform | select].sum(), dur[run].sum()),
        "simulate.chunk_bytes": float(spans[draw, _BYTES].max()) if draw.any() else 0.0,
        "closedform.capacity_us_per_call": _per(dur[cap].sum() / 1e3, cap.sum()),
        "closedform.outage_us_per_call": _per(dur[out].sum() / 1e3, out.sum()),
        "closedform.calls_per_op": _per(family("closedform").sum(), n_ops),
        "specfun.calls_per_op": _per((specfun & outer).sum(), n_ops),
        "specfun.self_us_per_call": _per(selfs[specfun].sum() / 1e3, (specfun & outer).sum()),
        "frontier.points": _per(points.sum(), n_ops),
        "frontier.point_ms": _per(dur[points].sum() / 1e6, points.sum()),
        "frontier.solves": _per(solves.sum(), n_ops),
        "frontier.solve_ms": _per(dur[solves].sum() / 1e6, solves.sum()),
        "frontier.integral_evals_per_op":
            _per(pick("frontier._capacity_policy_integrals").sum(), n_ops),
        "cli.self_ms_per_op": _per(selfs[main].sum() / 1e6, n_ops),
        "cli.bytes_out_per_op": _per(cli_bytes, n_ops),
    }
