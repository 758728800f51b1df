"""Per-layer spans recorded from outside the program.

The tracer rebinds each layer function wherever a kolkin module (or a
module-level dispatch dict) holds it, so every caller's lookup goes through
a wrapper that records one span: name, item id, parent span, start, end,
and counts taken from the call's arguments or result.  The coefficient
callable ``a2`` lives on each CoefficientField instead of a module, so the
tracer wraps ``suites.make_coefficients`` to return fields whose ``a2`` is
wrapped.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its direct children's
wrappers cover.  The wrapper's own bookkeeping (argument counting, span
storage) falls outside every span and is reported as the overhead share.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from kolkin.errors import SingularCovariance


def _unique_rows(*cols) -> int:
    return int(np.unique(np.column_stack([np.atleast_1d(c) for c in cols]), axis=0).shape[0])


def _expm_stack(B, times):
    times = np.atleast_1d(times)
    return {"calls": 1, "matrices": times.size, "distinct": np.unique(times).size}


def _frozen_covariance_stack(cf, S, tau, v, t, s, nodes=None):
    return {"covariances": np.size(t), "distinct_ts": _unique_rows(t, s)}


def _terminal_smoothing(cf, S, cov_nodes, eta_nodes, lat, T, g_fn):
    return {"cloud_points": lat.omega.size * eta_nodes**S.N}


def _pair_tensor(cf, S, cfg, lat):
    n_t, n_z = lat.shape
    return {"entries": n_t * (n_t - 1) // 2 * n_z * n_z}


def _em_chunk(cf, S, t0, x0, T, n_steps, m, rng, antithetic, f):
    return {"path_steps": n_steps * m}


def _calls(*args, **kwargs):
    return {"calls": 1}


# (span name, module, attribute, count from arguments, count from result)
LAYERS = (
    ("structure.expm_stack", "structure", "expm_stack", _expm_stack, None),
    ("kernels.frozen_covariance_stack", "kernels", "frozen_covariance_stack",
     _frozen_covariance_stack, None),
    ("kernels.factor_stack", "kernels", "factor_stack",
     lambda Cs: {"matrices": int(np.prod(np.shape(Cs)[:-2]))}, None),
    ("kernels._gauss_eval", "kernels", "_gauss_eval",
     lambda L_inv, logdet, z, flow, d, order: {"points": np.shape(z)[0]}, None),
    ("kernels.parametrix_stack", "kernels", "parametrix_stack",
     lambda cf, S, t, x, s, y, order=0, cov_nodes=None: {"points": np.size(t)}, None),
    ("levi.terminal_smoothing", "levi", "terminal_smoothing", _terminal_smoothing, None),
    ("levi._pair_tensor", "levi", "_pair_tensor", _pair_tensor, None),
    ("levi._build_lattice", "levi", "_build_lattice", None,
     lambda lat: {"nodes": lat.omega.size}),
    ("quadrature.proposal_nodes", "quadrature", "proposal_nodes", _calls, None),
    ("quadrature.hermite_lattice", "quadrature", "hermite_lattice", None, None),
    ("cauchy.solve_point", "cauchy", "solve_point", _calls, None),
    ("sde.simulate_paths", "sde", "simulate_paths", None, None),
    ("sde._em_chunk", "sde", "_em_chunk", _em_chunk, None),
    ("sde.principal_sqrt_psd", "sde", "principal_sqrt_psd", None, None),
    ("holder.taylor_remainder_check", "holder", "taylor_remainder_check", None, None),
    ("report.emit_report", "report", "emit_report", None,
     lambda paths: {"bytes": sum(Path(p).stat().st_size for p in paths.values())}),
) + tuple(
    (f"suites.{stage}_stage", "suites", f"{stage}_stage", None, None)
    for stage in ("structure", "kernel", "potential", "solver", "blowup", "taylor")
)
A2 = "coefficients.a2"

# Per-layer metrics: (name, unit, better).  Every name is reported on every
# workload; a layer a workload never calls reads 0.
SELF = "s/item"
COUNT = "count/item"
METRICS = (
    ("structure.expm_stack.self_s", SELF, "lower"),
    ("structure.expm_stack.calls", COUNT, "lower"),
    ("structure.expm_stack.matrices", COUNT, "lower"),
    ("structure.expm_stack.distinct_ratio", "1", "higher"),
    ("kernels.frozen_covariance_stack.self_s", SELF, "lower"),
    ("kernels.frozen_covariance_stack.covariances", COUNT, "lower"),
    ("kernels.frozen_covariance_stack.distinct_ts_ratio", "1", "higher"),
    ("kernels.factor_stack.self_s", SELF, "lower"),
    ("kernels.factor_stack.matrices", COUNT, "lower"),
    ("kernels.factor_stack.raised", COUNT, "lower"),
    ("kernels._gauss_eval.self_s", SELF, "lower"),
    ("kernels._gauss_eval.points", COUNT, "lower"),
    ("kernels.parametrix_stack.self_s", SELF, "lower"),
    ("kernels.parametrix_stack.points", COUNT, "lower"),
    ("levi.terminal_smoothing.self_s", SELF, "lower"),
    ("levi.terminal_smoothing.cloud_points", COUNT, "lower"),
    ("levi._pair_tensor.self_s", SELF, "lower"),
    ("levi._pair_tensor.entries", COUNT, "lower"),
    ("levi._build_lattice.self_s", SELF, "lower"),
    ("levi._build_lattice.nodes", COUNT, "lower"),
    ("quadrature.proposal_nodes.self_s", SELF, "lower"),
    ("quadrature.proposal_nodes.calls", COUNT, "lower"),
    ("quadrature.hermite_lattice.self_s", SELF, "lower"),
    ("cauchy.solve_point.self_s", SELF, "lower"),
    ("cauchy.solve_point.calls", COUNT, "lower"),
    ("coefficients.a2.self_s", SELF, "lower"),
    ("coefficients.a2.points", COUNT, "lower"),
    ("sde.simulate_paths.self_s", SELF, "lower"),
    ("sde._em_chunk.self_s", SELF, "lower"),
    ("sde.principal_sqrt_psd.self_s", SELF, "lower"),
    ("sde.path_steps", COUNT, "lower"),
    ("sde.path_steps_per_s", "1/s", "higher"),
    ("holder.taylor_remainder_check.self_s", SELF, "lower"),
    ("report.emit_report.self_s", SELF, "lower"),
    ("report.emit_report.bytes", "B/item", "lower"),
) + tuple(
    (f"suites.{stage}_stage.self_s", SELF, "lower")
    for stage in ("structure", "kernel", "potential", "solver", "blowup", "taylor")
) + (
    ("suites.solver_stage.threads2_speedup", "1", "higher"),
    ("trace.overhead_frac", "1", "lower"),
)


class Tracer:
    def __init__(self):
        # span: (name, item, t_enter, t_start, t_end, t_exit, parent, counts)
        self.spans = []
        self._stack = []
        self._patched = []  # (container, key, original)
        self.item = None

    # -- recording ------------------------------------------------------------
    def wrap(self, name, fn, count_args=None, count_result=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_enter = clock()
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            counts = count_args(*args, **kwargs) if count_args else {}
            t_start = clock()
            try:
                result = fn(*args, **kwargs)
            except SingularCovariance:
                t_end = clock()
                self._stack.pop()
                self.spans[idx] = (name, self.item, t_enter, t_start, t_end, clock(),
                                   parent, {**counts, "raised": 1})
                raise
            except BaseException:
                t_end = clock()
                self._stack.pop()
                self.spans[idx] = (name, self.item, t_enter, t_start, t_end, clock(),
                                   parent, counts)
                raise
            t_end = clock()
            self._stack.pop()
            if count_result:
                counts = {**counts, **count_result(result)}
            self.spans[idx] = (name, self.item, t_enter, t_start, t_end, clock(),
                               parent, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------
    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "kolkin" and not modname.startswith("kolkin."):
                continue
            for key, val in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if val is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            self._patched.append((val, dkey, original))
                            val[dkey] = wrapper

    def install(self):
        for name, modname, attr, count_args, count_result in LAYERS:
            original = getattr(import_module(f"kolkin.{modname}"), attr)
            self._rebind(original, self.wrap(name, original, count_args, count_result))
        suites = import_module("kolkin.suites")
        make = suites.make_coefficients

        def make_traced(*args, **kwargs):
            cf = make(*args, **kwargs)
            a2 = self.wrap(A2, cf.a2, lambda t, x: {"points": np.size(t)})
            return dataclasses.replace(cf, a2=a2)

        self._rebind(make, make_traced)

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    # -- summary --------------------------------------------------------------
    def metrics(self, n_items: int, item_wall: float, threads2_speedup: float) -> dict:
        """Per-item layer metrics over the spans recorded inside items."""
        self_s, inclusive, counts = {}, {}, {}
        child_cover = {}
        for name, item, t_in, t0, t1, t_out, parent, cnt in self.spans:
            if parent >= 0:
                child_cover[parent] = child_cover.get(parent, 0.0) + (t_out - t_in)
        book = 0.0
        for idx, (name, item, t_in, t0, t1, t_out, parent, cnt) in enumerate(self.spans):
            if item is None:
                continue
            book += (t0 - t_in) + (t_out - t1)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_cover.get(idx, 0.0)
            inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
            c = counts.setdefault(name, {})
            for k, v in cnt.items():
                c[k] = c.get(k, 0) + int(v)

        def count(layer, key):
            return counts.get(layer, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, unit, _ in METRICS:
            layer, _, quantity = metric.rpartition(".")
            if quantity == "self_s":
                value = self_s.get(layer, 0.0) / n_items
            elif metric == "structure.expm_stack.distinct_ratio":
                value = ratio(count("structure.expm_stack", "distinct"),
                              count("structure.expm_stack", "matrices"))
            elif metric == "kernels.frozen_covariance_stack.distinct_ts_ratio":
                layer = "kernels.frozen_covariance_stack"
                value = ratio(count(layer, "distinct_ts"), count(layer, "covariances"))
            elif metric == "sde.path_steps":
                value = count("sde._em_chunk", "path_steps") / n_items
            elif metric == "sde.path_steps_per_s":
                value = ratio(count("sde._em_chunk", "path_steps"),
                              inclusive.get("sde.simulate_paths", 0.0))
            elif metric == "suites.solver_stage.threads2_speedup":
                value = threads2_speedup
            elif metric == "trace.overhead_frac":
                value = ratio(book, item_wall)
            else:
                value = count(layer, quantity) / n_items
            out[metric] = {"value": float(value), "unit": unit}
        return out
