"""Benchmark-owned layer tracer: host time per layer, from outside the program.

A ``sys.setprofile`` hook that folds every call into the *layer* its code
belongs to.  A span opens whenever a call crosses from one layer's code into
another's and closes on return; a generator resumed by the engine counts as a
call (the interpreter reports each resume as one).  Code that belongs to no
layer (stdlib, numpy, built-ins) is charged to the nearest enclosing frame
that does, and C functions owned by a layer (``_simcore.*``, ``_physcore.*``)
are charged to that layer whoever calls them.

A layer's self time is its spans' duration minus the part their child spans
cover.  With one thread that is the time during which the layer is on top of
the span stack, so the hook keeps only the stack and charges the time since
the previous event to its top.  A workload crosses layers ~10^6 times per run,
so spans are folded into per-layer and per-edge totals as they close; no
per-span record is kept.  The hook's own run time (between its two clock
reads) is left out of every layer; the interpreter's cost of dispatching to
the hook is not, which inflates layers made of many small calls.  Shares are
therefore a guide to where time goes, and ``trace.overhead_ratio`` says how
much the picture is stretched; end-to-end numbers never come from traced runs.
"""

from __future__ import annotations

import os
import sys
import time
from types import ModuleType
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["LAYERS", "OTHER", "LayerTracer", "LayerTable", "classify_repro",
           "repro_c_owners"]

OTHER = "other"

#: (layer, package, modules) — ``None`` claims every remaining module of the
#: package.  Order matters only between a module list and a ``None`` row of
#: the same package.
_LAYER_FILES: Tuple[Tuple[str, str, Optional[Tuple[str, ...]]], ...] = (
    ("sim.network", "sim", ("network",)),
    ("sim.traffic", "sim", ("traffic", "failures")),
    ("sim.engine", "sim", None),  # engine, simcore, resources, rng, cbuild
    ("platform", "platform", None),
    ("core.transport", "core", ("transport",)),
    ("core.pipeline", "core", ("pipeline",)),
    ("core.profile", "core", ("profile", "data", "requests")),
    ("core.agent", "core", ("agent", "liveness", "deployment", "logservice",
                            "godiet")),
    ("core.aggregation", "core", ("aggregation",)),
    ("core.scheduling", "core", ("scheduling", "cori")),
    ("core.sed", "core", ("sed",)),
    ("core.client", "core", ("client", "gridrpc")),
    ("core.federation", "core", ("federation",)),
    ("core.statistics", "core", ("statistics",)),
    ("data.store", "data", ("store", "catalog")),
    ("data.memo", "data", ("memo",)),
    ("data.manager", "data", None),  # manager, transfer, policy
    ("services", "services", None),
    ("survey", "survey", None),
    ("ramses.gravity", "ramses", ("gravity", "poisson", "mesh", "physcore")),
    ("ramses.amr", "ramses", ("amr", "zoom", "hilbert", "domain")),
    ("ramses.io", "ramses", ("io", "namelist")),
    ("ramses.integrator", "ramses", None),  # every other ramses module
    ("grafic", "grafic", None),
    ("galics", "galics", None),
    ("obs", "obs", None),
    ("experiments", "experiments", None),
)

#: Every layer name, ``other`` last.
LAYERS: Tuple[str, ...] = tuple(
    sorted({row[0] for row in _LAYER_FILES})) + (OTHER,)

_BY_MODULE: Dict[Tuple[str, str], str] = {}
_BY_PACKAGE: Dict[str, str] = {}
for _layer, _package, _modules in _LAYER_FILES:
    if _modules is None:
        _BY_PACKAGE[_package] = _layer
    else:
        for _module in _modules:
            _BY_MODULE[(_package, _module)] = _layer

_REPRO_MARK = os.sep + "repro" + os.sep


def classify_repro(code) -> Optional[str]:
    """Layer of a code object by its file: ``.../repro/<package>/<module>.py``.

    Returns None for code outside the ``repro`` package (it inherits the
    layer of the frame that called it) and ``other`` for ``repro`` files no
    layer claims (``repro/__init__.py``, ``core/exceptions.py``); a package's
    ``__init__`` goes with the package's catch-all row.
    """
    filename = code.co_filename
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_REPRO_MARK):].split(os.sep)
    if len(parts) < 2:
        return OTHER
    package, module = parts[0], parts[-1].rsplit(".", 1)[0]
    return (_BY_MODULE.get((package, module)) or _BY_PACKAGE.get(package)
            or OTHER)


def repro_c_owners() -> Dict[object, str]:
    """The compiled cores and the layer each is charged to.

    Keys are the extension modules and the types they define; empty when the
    program runs on its pure-Python mirrors (whose files classify normally).
    """
    from repro.ramses import physcore
    from repro.sim import simcore

    owners: Dict[object, str] = {}
    for module, layer in ((simcore._C, "sim.engine"),
                          (physcore.phys_c, "ramses.gravity")):
        if module is None:
            continue
        owners[module] = layer
        for value in vars(module).values():
            if isinstance(value, type):
                owners[value] = layer
    return owners


class LayerTable:
    """Folded result of one traced run."""

    def __init__(self, layers: Tuple[str, ...], self_s: List[float],
                 calls: List[int], edges: Dict[Tuple[int, int], int],
                 wall_s: float):
        self.layers = layers
        self.self_s = dict(zip(layers, self_s))
        self.calls = dict(zip(layers, calls))
        #: (caller layer, callee layer) -> spans opened across that edge.
        self.edges = {(layers[a], layers[b]): n
                      for (a, b), n in sorted(edges.items())}
        #: Host seconds between start and stop, hook time included.
        self.wall_s = wall_s
        #: Seconds charged to some layer (``wall_s`` minus time in the hook).
        self.attributed_s = sum(self_s)

    def share(self, layer: str) -> float:
        return (self.self_s[layer] / self.attributed_s
                if self.attributed_s > 0 else 0.0)

    @property
    def named_share(self) -> float:
        """Share of attributed time that landed in a layer other than
        ``other``."""
        return 1.0 - self.share(OTHER)

    def as_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "attributed_s": self.attributed_s,
            "named_share": self.named_share,
            "layers": {name: {"self_s": self.self_s[name],
                              "share": self.share(name),
                              "calls": self.calls[name]}
                       for name in self.layers},
            "edges": [{"from": a, "to": b, "calls": n}
                      for (a, b), n in self.edges.items()],
        }


class LayerTracer:
    """Fold a call tree into per-layer self time and cross-layer call counts.

    ``classify(code)`` names the layer of a Python code object, or returns
    None for code that inherits its caller's layer.  ``c_owners`` maps
    extension modules and extension types to the layer their C functions are
    charged to.  Single-threaded: the hook is installed for the calling
    thread only.
    """

    def __init__(self, layers: Iterable[str],
                 classify: Callable[[object], Optional[str]],
                 c_owners: Optional[Dict[object, str]] = None):
        self.layers = tuple(layers)
        if OTHER not in self.layers:
            raise ValueError(f"layers must include {OTHER!r}")
        self._index = {name: i for i, name in enumerate(self.layers)}
        self._classify = classify
        owners = c_owners or {}
        self._c_types = {key: self._index[layer]
                         for key, layer in owners.items()
                         if isinstance(key, type)}
        self._c_modules = {id(key): self._index[layer]
                           for key, layer in owners.items()
                           if isinstance(key, ModuleType)}
        self._owners = owners  # keeps the id()-keyed modules alive

    def run(self, func: Callable[[], object]) -> Tuple[object, LayerTable]:
        """Call ``func()`` under the tracer; returns its result and the table."""
        n = len(self.layers)
        other = self._index[OTHER]
        index = self._index
        classify = self._classify
        c_types = self._c_types
        c_modules = self._c_modules
        track_c = bool(c_types or c_modules)
        clock = time.perf_counter

        self_s = [0.0] * n
        calls = [0] * n
        edges: Dict[Tuple[int, int], int] = {}
        code_layer: Dict[object, int] = {}
        stack = [other]
        state = [clock()]  # clock read when the hook last returned

        def hook(frame, event, arg):
            now = clock()
            cur = stack[-1]
            self_s[cur] += now - state[0]
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    name = classify(code)
                    layer = code_layer[code] = (-1 if name is None
                                                else index[name])
                if layer < 0:
                    layer = cur
                elif layer != cur:
                    calls[layer] += 1
                    edge = (cur, layer)
                    edges[edge] = edges.get(edge, 0) + 1
                stack.append(layer)
            elif event == "return":
                if len(stack) > 1:
                    stack.pop()
            elif track_c:
                # c_call / c_return / c_exception: only functions of an owned
                # extension open a span; every other built-in stays with the
                # layer that called it.
                owner = arg.__self__
                kind = type(owner)
                layer = c_types.get(kind)
                if layer is None and kind is ModuleType:
                    layer = c_modules.get(id(owner))
                if layer is not None:
                    if event == "c_call":
                        if layer != cur:
                            calls[layer] += 1
                            edge = (cur, layer)
                            edges[edge] = edges.get(edge, 0) + 1
                        stack.append(layer)
                    elif len(stack) > 1:
                        stack.pop()
            state[0] = clock()

        started = clock()
        state[0] = started
        sys.setprofile(hook)
        try:
            result = func()
        finally:
            sys.setprofile(None)
            stopped = clock()
        return result, LayerTable(self.layers, self_s, calls, edges,
                                  stopped - started)
