"""Spans at the boundaries between smgopt's modules, recorded from outside src/.

`Tracer.install()` rebinds every public module-level function of the layer
modules to a wrapper, in each smgopt namespace that holds it, so the
`from .x import f` bindings inside the package are traced too.  The
per-component callables of a Problem are closures, so a problem returned by
the problems layer gets wrapped callables of its own.  `uninstall()`
restores the originals.

A span is recorded only where a call crosses from one layer into another: a
call made while a span of its own layer is innermost runs unwrapped and
counts toward that span (logistic_component_grad inside component_grad,
every cli helper inside cli.main).  That keeps the cost per inner step to
one span.  Spans are aggregated in memory by name (calls, total and self
time) rather than kept one by one.  A span's self time is its duration minus
its child spans, so the self times of all spans add up to the root span,
`cli.main`.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("dataio", "problems", "shuffling", "schedules", "optimizers", "audit", "cli")
PROBLEM_CALLABLES = ("component_value", "component_grad", "full_value", "full_grad")
OPTIMIZER_RUNS = {"smg": "smg_run", "ssmg": "ssmg_run", "sgd": "shuffling_sgd_run",
                  "sgdm": "sgdm_run", "adam": "adam_run"}


class Tracer:
    """Span aggregates of one traced run; install, run, uninstall."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_outer = defaultdict(float)   # spans not nested in their own layer
        self.layer_outer_calls = defaultdict(int)
        self.steps = 0                          # n * T of every optimizer run
        self._stack = []                        # open spans: [layer, child seconds]
        self._depth = defaultdict(int)
        self._patches = []                      # (owner, attribute, original)

    # -- span recording -----------------------------------------------------

    def wrap(self, name: str, layer: str, fn):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_s[name] += own
                self.layer_self[layer] += own
                if not depth[layer]:
                    self.layer_outer[layer] += elapsed
                    self.layer_outer_calls[layer] += 1
            return self._after(name, layer, args, result)

        return traced

    def _after(self, name, layer, args, result):
        # problems built by the problems layer; cli passes the same object on
        if layer == "problems" and isinstance(result, self._problem_cls):
            wrapped = {attr: self.wrap(f"problems.{attr}", "problems", getattr(result, attr))
                       for attr in PROBLEM_CALLABLES}
            return dataclasses.replace(result, **wrapped)
        if name in self._run_names:
            self.steps += result.T * args[0].n
        return result

    # -- patching -----------------------------------------------------------

    def install(self):
        package = importlib.import_module("smgopt")
        self._problem_cls = importlib.import_module("smgopt.problems").Problem
        self._run_names = {f"optimizers.{fn}" for fn in OPTIMIZER_RUNS.values()}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "smgopt" or n.startswith("smgopt.")]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", layer, fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def counts(self) -> dict:
        """Every exact count the trace holds; equal seeds must repeat them."""
        out = {f"calls:{k}": v for k, v in sorted(self.calls.items())}
        out["steps"] = self.steps
        return out

    def layer_metrics(self, parse_bytes: int, nnz: int, trace_bytes: int) -> dict:
        """The per-layer metrics, from the spans of one traced CLI invocation.

        parse_bytes is the size of the dataset file each parse reads, nnz
        the stored entries of the dataset a full pass visits, and
        trace_bytes what the traces and sidecars of the run occupy.
        """
        t, c = self.total, self.calls
        parse_s = t["dataio.parse_libsvm"]
        builds = c["problems.logistic_problem"] + c["problems.quadratic_mean_problem"]
        grads = c["problems.component_grad"]
        passes = c["problems.full_value"] + c["problems.full_grad"]
        full_pass_s = t["problems.full_value"] + t["problems.full_grad"]
        m = {
            "dataio.parse_s": parse_s,
            "dataio.parse_mb_per_s":
                c["dataio.parse_libsvm"] * parse_bytes / parse_s / 1e6 if parse_s else 0.0,
            "dataio.write_trace_calls": c["dataio.write_trace"],
            "dataio.write_trace_s": t["dataio.write_trace"],
            "dataio.write_trace_bytes": trace_bytes,
            "problems.build_calls": builds,
            "problems.build_s": (t["problems.logistic_problem"]
                                 + t["problems.quadratic_mean_problem"]),
            "problems.component_grad_calls": grads,
            "problems.component_grad_s": t["problems.component_grad"],
            "problems.component_grad_us":
                t["problems.component_grad"] / grads * 1e6 if grads else 0.0,
            "problems.full_value_calls": c["problems.full_value"],
            "problems.full_grad_calls": c["problems.full_grad"],
            "problems.full_pass_s": full_pass_s,
            "problems.full_pass_mnnz_per_s":
                passes * nnz / full_pass_s / 1e6 if full_pass_s else 0.0,
            "shuffling.permutation_calls": c["shuffling.permutation_for_epoch"],
            "shuffling.permutation_s": t["shuffling.permutation_for_epoch"],
            "shuffling.select_s": (t["shuffling.select_output_index"]
                                   + t["shuffling.selection_rng"]),
            "schedules.s": self.layer_outer["schedules"],
        }
        for algo, fn in OPTIMIZER_RUNS.items():
            m[f"optimizers.{algo}_s"] = t[f"optimizers.{fn}"]
            m[f"optimizers.{algo}_self_s"] = self.self_s[f"optimizers.{fn}"]
        m["optimizers.steps"] = self.steps
        m["audit.calls"] = self.layer_outer_calls["audit"]
        m["audit.s"] = self.layer_outer["audit"]
        runs = sum(c[f"optimizers.{fn}"] for fn in OPTIMIZER_RUNS.values())
        m["cli.builds_per_point"] = builds / max(1, runs)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self[layer]
        m["tracing.wall_s"] = t["cli.main"]
        return m
