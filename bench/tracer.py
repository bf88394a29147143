"""Spans and call counts recorded from outside ``lqmfg``.

``Tracer.install`` replaces every public module-level function of the five
layer modules with a wrapper that records a span, in the defining module and
in every ``lqmfg`` module that imported it by name.  ``Coefficient.__call__``
and ``Trajectory.__call__`` run about a million times per workload, so they
are counted, not spanned.  ``Tracer.uninstall`` restores the originals.

Spans are kept in memory.  Appends take a lock, so the sweep's worker threads
can record concurrently.  A worker thread's outermost span takes as parent the
span open in the thread that installed the tracer (the command that started
the pool), so a command's self time excludes the time its workers cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("model", "riccati", "equilibrium", "simulate", "cli")
# per-value helpers called from the CSV writers: not layer boundaries
NOT_SPANNED = {"model.fmt_float"}
COUNTED = {"model.coef_evals": ("model", "Coefficient"),
           "model.traj_evals": ("model", "Trajectory")}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    command: int
    thread: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    nested: bool = False         # opened inside another span of its own thread
    info: dict = field(default_factory=dict)


def _observe(name: str, sig: inspect.Signature, args, kwargs, result) -> dict:
    """Counts read off the arguments or result of a spanned call."""
    if name == "riccati.solve_alpha":
        return {"steps": sig.bind(*args, **kwargs).arguments["grid"].n_steps}
    if name in ("riccati.solve_beta", "riccati.solve_eta"):
        return {"blowup": int(not result[1].admissible)}
    if name == "equilibrium.solve_equilibrium_picard":
        return {"iterations": result.iterations}
    if name == "equilibrium.solve_equilibrium_closed_form":
        return {"residual": result.residual}
    if name == "simulate.simulate_paths":
        bound = sig.bind(*args, **kwargs).arguments
        cfg = bound["config"]
        return {"path_steps": cfg.n_paths * cfg.n_sim_steps(bound["params"].T)}
    return {}


def _counting(counter, fn):
    def counted(*args, **kwargs):
        next(counter)
        return fn(*args, **kwargs)
    return counted


OBSERVED = {"riccati.solve_alpha", "riccati.solve_beta", "riccati.solve_eta",
            "equilibrium.solve_equilibrium_picard",
            "equilibrium.solve_equilibrium_closed_form", "simulate.simulate_paths"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self.main_thread = threading.get_ident()
        self._counters = {name: itertools.count() for name in COUNTED}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in OBSERVED else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, nested = stack[-1].id, True
            else:
                main = tracer._main_stack
                parent, nested = (main[-1].id if main else None), False
            span = Span(next(tracer._ids), name, parent, tracer.command,
                        threading.get_ident(), time.perf_counter(),
                        cpu_start=time.thread_time(), nested=nested)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu_end = time.thread_time()
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if sig is not None:
                span.info = _observe(name, sig, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"lqmfg.{layer}") for layer in LAYERS}
        everywhere = [importlib.import_module("lqmfg"), *mods.values()]
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in NOT_SPANNED):
                    continue
                wrappers[id(fn)] = self._wrap(name, fn)
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        for metric, (layer, cls_name) in COUNTED.items():
            cls = getattr(mods[layer], cls_name)
            self._set(cls, "__call__", _counting(self._counters[metric], cls.__call__))

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def counts(self) -> dict[str, int]:
        """Calls counted so far; next() on itertools.count is atomic, so the
        counts are exact across threads.  Read once, at the end of a pass."""
        return {name: next(counter) for name, counter in self._counters.items()}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


# per-layer metric -> the spans it sums over
SPAN_GROUPS = {
    "riccati.solve_alpha": ("riccati.solve_alpha",),
    "riccati.solve_gamma": ("riccati.solve_gamma",),
    "riccati.solve_beta": ("riccati.solve_beta",),
    "riccati.solve_eta": ("riccati.solve_eta",),
    "equilibrium.apply_phi": ("equilibrium.apply_phi",),
    "equilibrium.picard": ("equilibrium.solve_equilibrium_picard",),
    "equilibrium.closed_form": ("equilibrium.solve_equilibrium_closed_form",),
    "simulate.simulate_paths": ("simulate.simulate_paths",),
}
SELF_ONLY = {
    "simulate.estimators": ("simulate.estimate_risk_neutral_cost",
                            "simulate.estimate_exponential_cost",
                            "simulate.estimate_girsanov_normalization",
                            "simulate.per_path_cost"),
    "simulate.saddle_check": ("simulate.saddle_check",),
    "cli.parse_config": ("cli.parse_config",),
    "cli.cmd": ("cli.cmd_solve", "cli.cmd_verify", "cli.cmd_sweep", "cli.cmd_check"),
}


def layer_metrics(tracer: Tracer, counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = dict(counts)

    def of(names):
        return [sp for sp in spans if sp.name in names]

    for metric, names in SPAN_GROUPS.items():
        group = of(names)
        out[f"{metric}.calls"] = len(group)
        out[f"{metric}.self_s"] = sum(selfs[sp.id] for sp in group)
    for metric, names in SELF_ONLY.items():
        out[f"{metric}.self_s"] = sum(selfs[sp.id] for sp in of(names))

    alpha_steps = sum(sp.info["steps"] for sp in of(("riccati.solve_alpha",)))
    out["riccati.solve_alpha.us_per_step"] = (
        1e6 * out["riccati.solve_alpha.self_s"] / alpha_steps if alpha_steps else 0.0)
    out["riccati.blowups"] = sum(sp.info["blowup"] for sp in
                                 of(("riccati.solve_beta", "riccati.solve_eta")))
    out["equilibrium.picard.iterations"] = sum(
        sp.info["iterations"] for sp in of(("equilibrium.solve_equilibrium_picard",)))
    out["equilibrium.closed_form_residual"] = max(
        (sp.info["residual"] for sp in of(("equilibrium.solve_equilibrium_closed_form",))),
        default=0.0)
    path_steps = sum(sp.info["path_steps"] for sp in of(("simulate.simulate_paths",)))
    out["simulate.path_steps"] = path_steps
    out["simulate.ns_per_path_step"] = (
        1e9 * out["simulate.simulate_paths.self_s"] / path_steps if path_steps else 0.0)

    # outermost spans of worker threads: their CPU time is work done, the
    # rest of their wall time is waiting for the interpreter lock or a core
    workers = [sp for sp in spans
               if sp.thread != tracer.main_thread and not sp.nested]
    busy = sum(sp.cpu_end - sp.cpu_start for sp in workers)
    out["cli.sweep.busy_cpu_s"] = busy
    out["cli.sweep.wait_s"] = sum(sp.end - sp.start for sp in workers) - busy
    return out
