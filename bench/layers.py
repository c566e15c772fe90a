"""Spans and counters around the public entry point of each ektlab layer.

The recorder replaces each entry-point function by a wrapper at every
``ektlab`` module attribute that holds it, so callers that imported the
name (``cli.self_intersections``) and callers that look it up in the
defining module (``solver.triangulate``, or a function-local
``from .curves import assemble_domain``) all go through the wrapper.
Nothing under ``src/`` changes.

Spans stay in memory and are handed to the caller when the run ends.  A
call that re-enters the layer already open (``mesh.triangulate`` meshes an
ideal-b triangle by calling itself) belongs to the open span.
"""
from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc

# layer -> entry points, as (defining module, function name)
LAYERS = {
    "mesh": [("ektlab.mesh", "triangulate")],
    "newton": [("ektlab.solver", "solve_dirichlet")],
    "post": [("ektlab.solver", "distance_d_single"),
             ("ektlab.solver", "rho_estimate_single"),
             ("ektlab.solver", "boundary_theta_prime")],
    "march": [("ektlab.curves", "integrate_prescribed_curvature")],
    "tiling": [("ektlab.curves", "assemble_domain")],
    "crossings": [("ektlab.embedding", "self_intersections")],
    "raster": [("ektlab.embedding", "multiplicity_two_area")],
    "svg": [("ektlab.embedding", "write_domain_svg"),
            ("ektlab.embedding", "write_domain_panels_svg")],
}

# layers whose results feed the answer check; wrapped in every run
FACT_LAYERS = ("newton", "march")

# layers whose peak allocation the tracemalloc pass measures
MEMORY_LAYERS = ("mesh", "crossings")

# every per-layer metric of a traced run, with its unit
UNITS = {
    "mesh.s": "s", "mesh.calls": "count", "mesh.nodes": "count",
    "mesh.elements": "count", "mesh.peak_mb": "MB",
    "newton.s": "s", "newton.solves": "count", "newton.iters": "count",
    "newton.iters_max": "count", "newton.s_per_iter": "s",
    "newton.failed": "count",
    "post.s": "s", "post.calls": "count", "post.calls_per_solution": "ratio",
    "march.s": "s", "march.steps": "count", "march.us_per_step": "us",
    "tiling.s": "s", "tiling.segments": "count",
    "crossings.s": "s", "crossings.found": "count",
    "crossings.uncertain": "count", "crossings.peak_mb": "MB",
    "raster.s": "s",
    "svg.s": "s", "svg.bytes": "bytes",
    "cpu_s": "s", "untraced_s": "s", "trace_overhead_frac": "fraction",
}


def _count(layer, args, result, counters):
    """Work counts read off a layer call's arguments and result."""
    if layer == "mesh":
        counters["mesh.nodes"] += result.n_nodes
        counters["mesh.elements"] += int(result.elements.shape[0])
    elif layer == "newton":
        counters["newton.iters"] += result.newton_iters
        counters["newton.iters_max"] = max(counters["newton.iters_max"],
                                           result.newton_iters)
    elif layer == "march":
        counters["march.steps"] += len(result.s) - 1
    elif layer == "tiling":
        counters["tiling.segments"] += result.segment_count
    elif layer == "crossings":
        counters["crossings.found"] += result.crossings
        counters["crossings.uncertain"] += len(result.uncertain)
    elif layer == "svg":
        counters["svg.bytes"] += os.path.getsize(args[0])


def _fact(layer, args, result):
    if layer == "newton":
        # solve_dirichlet(domain, boundary_values, ...): M is the far-side value
        return {"M": args[1].get("side_p1p2"), "iters": result.newton_iters,
                "nodes": result.domain.n_nodes}
    return {"steps": len(result.s) - 1, "reason": result.truncated_reason}


class Recorder:
    """Installs the wrappers for one run and collects what they see.

    ``timed``: open a span per call and count work (the traced run);
    otherwise only the fact layers are wrapped, with no clock reads.
    ``memory``: record each memory layer's peak tracemalloc allocation;
    tracemalloc runs only inside those spans.  ``keep_solutions``: keep the
    solutions of the last Jenkins-Serrin sweep, for answers the program
    does not write.
    """

    def __init__(self, timed: bool, memory: bool = False,
                 keep_solutions: bool = False):
        self.timed = timed
        self.memory = memory
        self.keep_solutions = keep_solutions
        self.spans = []          # [layer, start, end, parent index]
        self.open = []           # indices of open spans
        self.calls = {layer: 0 for layer in LAYERS}
        self.failed = {layer: 0 for layer in LAYERS}
        self.counters = {k: 0 for k in (
            "mesh.nodes", "mesh.elements", "newton.iters", "newton.iters_max",
            "march.steps", "tiling.segments", "crossings.found",
            "crossings.uncertain", "svg.bytes")}
        self.peak_mb = {layer: 0.0 for layer in MEMORY_LAYERS}
        self.facts = {"newton": [], "march": []}
        self.last_solutions = None
        self.t0 = None

    def install(self) -> None:
        layers = LAYERS if self.timed else {k: LAYERS[k] for k in FACT_LAYERS}
        for layer, entries in layers.items():
            for modname, attr in entries:
                orig = getattr(sys.modules[modname], attr)
                self._replace(orig, self._wrap(layer, orig))
        if not self.keep_solutions:
            return
        solver = sys.modules["ektlab.solver"]
        orig = solver.solve_jenkins_serrin

        @functools.wraps(orig)
        def keep(*args, **kwargs):
            self.last_solutions = orig(*args, **kwargs)
            return self.last_solutions
        self._replace(orig, keep)

    @staticmethod
    def _replace(orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ektlab" or name.startswith("ektlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def _wrap(self, layer, fn):
        if not self.timed:
            @functools.wraps(fn)
            def fact_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.facts[layer].append(_fact(layer, args, result))
                return result
            return fact_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.open and self.spans[self.open[-1]][0] == layer:
                return fn(*args, **kwargs)
            idx = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(idx)
                self.failed[layer] += 1
                raise
            self._leave(idx)
            self.calls[layer] += 1
            _count(layer, args, result, self.counters)
            if layer in self.facts:
                self.facts[layer].append(_fact(layer, args, result))
            return result
        return traced

    def _enter(self, layer) -> int:
        if self.memory and layer in MEMORY_LAYERS:
            tracemalloc.start()
        parent = self.open[-1] if self.open else None
        self.spans.append([layer, time.perf_counter() - self.t0, None, parent])
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def _leave(self, idx) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter() - self.t0
        self.open.pop()
        if self.memory and span[0] in MEMORY_LAYERS:
            peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
            tracemalloc.stop()
            self.peak_mb[span[0]] = max(self.peak_mb[span[0]], peak)

    def metrics(self, run_s: float, cpu_s: float) -> dict:
        """Per-layer metrics of one traced run (times in seconds)."""
        self_s = {layer: 0.0 for layer in LAYERS}
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for layer, start, end, parent in self.spans:
            if parent is None:
                top_s += end - start
            else:
                child_s[parent] += end - start
        for i, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - child_s[i]
        c = self.counters
        solves = self.calls["newton"]
        return {
            "mesh.s": self_s["mesh"], "mesh.calls": self.calls["mesh"],
            "mesh.nodes": c["mesh.nodes"], "mesh.elements": c["mesh.elements"],
            "newton.s": self_s["newton"], "newton.solves": solves,
            "newton.iters": c["newton.iters"],
            "newton.iters_max": c["newton.iters_max"],
            "newton.s_per_iter": self_s["newton"] / c["newton.iters"]
            if c["newton.iters"] else 0.0,
            "newton.failed": self.failed["newton"],
            "post.s": self_s["post"], "post.calls": self.calls["post"],
            "post.calls_per_solution": self.calls["post"] / solves if solves else 0.0,
            "march.s": self_s["march"], "march.steps": c["march.steps"],
            "march.us_per_step": 1e6 * self_s["march"] / c["march.steps"]
            if c["march.steps"] else 0.0,
            "tiling.s": self_s["tiling"], "tiling.segments": c["tiling.segments"],
            "crossings.s": self_s["crossings"],
            "crossings.found": c["crossings.found"],
            "crossings.uncertain": c["crossings.uncertain"],
            "raster.s": self_s["raster"],
            "svg.s": self_s["svg"], "svg.bytes": c["svg.bytes"],
            "cpu_s": cpu_s, "untraced_s": run_s - top_s,
        }
