"""Spans around the package's public functions, installed from outside the package.

Every public function defined in one of the layer modules is replaced,
in every eitqfc module namespace that binds it, by a wrapper that
records a span (function, start, end, parent span, operation id).  No
file under src/ changes.  Spans stay in memory until the run ends.
A function's self time is its span's duration minus the durations of
its direct child spans; calls nest strictly in one thread, so the
children never overlap.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("params", "spectral", "transfer", "noise", "states", "cli")
INTEGRALS = ("noise.langevin_photon_noise", "noise.eta1")
#: Operation id of calls outside any measured operation.
NO_OP = -1


def _solve_point(args, kwargs):
    """(params without alpha, omega) of one solve_susceptibilities call."""
    params = args[0] if args else kwargs["params"]
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    rest = (params.omega_c, params.omega_d, params.gamma31, params.gamma41, params.gamma21)
    return [rest + (float(w),) for w in np.ravel(omega)]


def _grid_request(args, kwargs):
    """(a, b, n) of one gauss_legendre_grid call."""
    names = ("a", "b", "n")
    return tuple(args[k] if k < len(args) else kwargs[names[k]] for k in range(3))


def _z_nodes(args, kwargs):
    z_grid = args[2] if len(args) > 2 else kwargs.get("z_grid")
    return 257 if z_grid is None else int(np.size(z_grid))


def _zero_diffusion(args, kwargs):
    diffusion = args[1] if len(args) > 1 else kwargs.get("diffusion")
    return diffusion is None or bool(np.all(diffusion.entries == 0))


OBSERVERS = {
    "spectral.solve_susceptibilities": _solve_point,
    "noise.gauss_legendre_grid": _grid_request,
    "transfer.noise_kernels": _z_nodes,
    "noise.langevin_photon_noise": _zero_diffusion,
    "noise.eta1": _zero_diffusion,
}


class Tracer:
    def __init__(self, package: str = "eitqfc"):
        self.names: list[str] = []
        self.functions: list = []
        self.spans: list = []
        self.observed: dict[int, object] = {}
        self.op = NO_OP
        self._stack: list[int] = []
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self.names.append(f"{layer}.{attr}")
                    self.functions.append(obj)
        index = {id(fn): k for k, fn in enumerate(self.functions)}
        self._wrappers = [self._wrap(k, fn) for k, fn in enumerate(self.functions)]
        self._bindings = [
            (module, attr, index[id(obj)])
            for name, module in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")
            for attr, obj in vars(module).items()
            if id(obj) in index
        ]

    def _wrap(self, k: int, fn):
        spans, stack, observed, clock = self.spans, self._stack, self.observed, time.perf_counter
        observe = OBSERVERS.get(self.names[k])
        tracer = self

        def wrapper(*args, **kwargs):
            slot = len(spans)
            if observe is not None:
                try:
                    observed[slot] = observe(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    observed[slot] = None  # a changed signature loses the detail, not the span
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (k, start, end, parent, tracer.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, k in self._bindings:
            setattr(module, attr, self._wrappers[k])

    def uninstall(self) -> None:
        for module, attr, k in self._bindings:
            setattr(module, attr, self.functions[k])

    def profile_counts(self, thunk) -> Counter:
        """Calls of each wrapped function's own code, seen by sys.setprofile."""
        codes = {fn.__code__: name for name, fn in zip(self.names, self.functions)}
        counts: Counter = Counter()

        def profiler(frame, event, _arg):
            if event == "call" and frame.f_code in codes:
                counts[codes[frame.f_code]] += 1

        sys.setprofile(profiler)
        try:
            thunk()
        finally:
            sys.setprofile(None)
        return counts

    def span_counts(self, op: int) -> Counter:
        return Counter(self.names[s[0]] for s in self.spans if s[4] == op)

    def save(self, path: Path) -> None:
        columns = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            function=columns[:, 0].astype(np.int32),
            start=columns[:, 1],
            end=columns[:, 2],
            parent=columns[:, 3].astype(np.int64),
            op=columns[:, 4].astype(np.int32),
        )

    def layer_metrics(
        self,
        ops: list[int],
        op_seconds: list[float],
        rows: int,
        csv_bytes: int,
        cold_op: int,
        untraced_seconds: list[float],
    ) -> dict[str, float]:
        """Per-layer metrics per measured operation (see README.md for each)."""
        n_ops = len(ops)
        wanted = set(ops)
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        cold_self: Counter = Counter()
        points: dict[int, list] = defaultdict(list)
        integrals: dict[int, dict] = {}
        z_nodes = 0
        for slot, (k, start, end, parent, op) in enumerate(self.spans):
            name = self.names[k]
            own = end - start - child[slot]
            if op == cold_op:
                cold_self[name] += own
            if op not in wanted:
                continue
            calls[name] += 1
            self_s[name] += own
            seen = self.observed.get(slot)
            if name == "spectral.solve_susceptibilities":
                points[op].extend(seen or ())
            elif name == "transfer.noise_kernels":
                z_nodes += seen or 0
            elif name in INTEGRALS:
                integrals[slot] = {"zero": bool(seen), "omega_grids": []}
            elif name == "noise.gauss_legendre_grid" and seen is not None:
                a, _b, n = seen
                owner = self._ancestor(slot, INTEGRALS)
                if a < 0 and owner in integrals:  # omega grids span [-window, window]
                    integrals[owner]["omega_grids"].append(n)

        def per_op(value: float) -> float:
            return value / n_ops

        m: dict[str, float] = {}
        for name in (
            "transfer.semiclassical_solve",
            "spectral.solve_susceptibilities",
            "transfer.propagation_matrix",
            "transfer.expm2",
            "transfer.boundary_resolve",
            "transfer.noise_kernels",
            "noise.gauss_legendre_grid",
            "states.apply_loss_channel",
            "states.channel_amplitude",
            "params.validate",
        ):
            m[f"{name}.calls"] = per_op(calls[name])
        for name in (
            "transfer.semiclassical_solve",
            "spectral.solve_susceptibilities",
            "transfer.propagation_matrix",
            "transfer.expm2",
            "transfer.boundary_resolve",
            "transfer.noise_kernels",
            "noise.langevin_photon_noise",
            "noise.eta1",
            "states.apply_loss_channel",
            "states.fidelity",
            "cli.main",
            "cli.run_fig2",
            "cli.run_custom",
            "cli.write_csv",
            "params.validate",
        ):
            m[f"{name}.self_s"] = per_op(self_s[name])
        m["noise.gauss_legendre_grid.self_s"] = float(cold_self["noise.gauss_legendre_grid"])

        ratios = [len(set(p)) / len(p) for p in points.values() if p]
        m["spectral.alpha_free_distinct_ratio"] = statistics.fmean(ratios) if ratios else 0.0
        m["transfer.pipeline_runs_per_row"] = calls["transfer.propagation_matrix"] / rows if rows else 0.0
        m["transfer.noise_kernels.z_nodes"] = per_op(z_nodes)
        nodes = [sum(i["omega_grids"]) for i in integrals.values()]
        m["noise.omega_nodes_per_integral"] = statistics.fmean(nodes) if nodes else 0.0
        shares = [i["omega_grids"][-1] / sum(i["omega_grids"]) for i in integrals.values() if i["omega_grids"]]
        m["noise.final_level_share"] = statistics.fmean(shares) if shares else 0.0
        m["noise.zero_diffusion_nodes"] = per_op(
            sum(sum(i["omega_grids"]) for i in integrals.values() if i["zero"])
        )
        m["cli.csv_bytes"] = per_op(csv_bytes)

        total = sum(op_seconds)
        for layer in LAYERS:
            layer_self = sum(v for name, v in self_s.items() if name.split(".")[0] == layer)
            m[f"{layer}.self_s"] = per_op(layer_self)
            m[f"{layer}.share"] = layer_self / total
        m["trace.overhead_ratio"] = statistics.median(op_seconds) / statistics.median(untraced_seconds)
        return m

    def _ancestor(self, slot: int, names: tuple[str, ...]) -> int:
        parent = self.spans[slot][3]
        while parent >= 0 and self.names[self.spans[parent][0]] not in names:
            parent = self.spans[parent][3]
        return parent
