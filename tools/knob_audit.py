"""Audit ``src/repro`` for definitions and settable values only tests use.

Two passes:

AST pass (``--check`` runs this one alone)
    Lists every definition in ``src/repro`` -- module-level function or
    class, method -- and every settable value: a dataclass or NamedTuple
    field with a default, and a parameter with a default.  Then it reads
    every non-test caller: ``src/`` (the CLI included), ``benchmarks/`` and
    ``examples/``, minus their ``test_*.py`` and ``conftest.py``.  A
    definition is a *hit* when no caller references it outside its own
    body; a value is a hit when no caller passes it something other than
    its default.  Matching is by name, so it errs towards "used": a call
    ``x.run(seed=3)`` sets ``seed`` of every ``run``, and a method counts
    as referenced by any ``x.name``.  Passing a parameter or a config field
    on unchanged (``f(seed=seed)``, ``f(p=cfg.p)``) sets the callee's value
    only if the forwarded one is set itself.  A record field the program
    writes (``x.a = v``, ``x.a += v``, ``x.a.append(v)``) is run state, not
    a knob.  ``Task(func=f, args=(...))`` calls ``f``.  A ``**mapping``
    argument sets every parameter of the callee, except the CLI's
    ``row.run(**kwargs)``, whose keywords are read from the ``Opt`` rows of
    its ``Experiment`` table.

Reach pass
    Runs every registry experiment with small options and the five
    ``benchmarks/e2e`` workloads at their quick sizes under the stdlib
    ``trace`` module, then lists the functions of ``src/repro`` none of
    them calls.  It informs; it gates nothing.

A hit is deleted, given a workload that turns it on, or named in
:data:`KEEP` with the reason it stays.  ``--check`` fails on a hit not in
``KEEP`` and on a ``KEEP`` key that covers no hit.

    python tools/knob_audit.py --check           # the CI gate (~1 s)
    python tools/knob_audit.py                   # both passes (~1.5 min)
    python tools/knob_audit.py --write --before REV
        # both passes into tools/knob_audit.txt, with REV's AST counts
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "tools", "knob_audit.txt")

#: Hits that stay on purpose, one line of reason per group.  A key is a
#: hit as the report prints it, or its owner (``module:Class``,
#: ``module:function``), which covers the owner's methods and values, or a
#: module (``repro.core.gridrpc``).
_KEPT: Dict[str, str] = {
    "the GridRPC API surface, the paper's client interface: "
    "examples/gridrpc_api_tour.py drives its synchronous half, tests the "
    "asynchronous half; deadline retries are grpc_set_deadline's budget":
        "repro.core.gridrpc "
        "repro.core.transport:Endpoint.set_deadline(retries=) "
        "repro.core.transport:Endpoint.set_deadline(backoff=)",
    "DIET's data / profile description API: argument descriptors, direction "
    "filters and diet_service_table_add's (ignored) convertor":
        "repro.core.data:vector_desc repro.core.data:matrix_desc "
        "repro.core.data:string_desc repro.core.profile:Profile.in_args "
        "repro.core.profile:Profile.inout_args "
        "repro.core.profile:Profile.out_args "
        "repro.core.sed:SeD.add_service(convertor=)",
    "FaultInjector: ROADMAP item 2(c)'s chaos sweep is its workload":
        "repro.core.transport:FaultInjector",
    "the transport's message API: every send form takes a payload size "
    "(rpc and try_send are passed one in src)":
        "repro.core.transport:Endpoint.send(nbytes=)",
    "calibrated section-5 constants, one record each, and where a component "
    "takes its record":
        "repro.core.transport:TransportParams "
        "repro.core.transport:TransportFabric(params=) "
        "repro.core.sed:SeDParams repro.core.sed:SeD(params=) "
        "repro.core.agent:AgentParams.processing_time "
        "repro.core.agent:AgentParams.child_timeout "
        "repro.core.cori:CoRI(collect_time=)",
    "liveness protocol constants (E11's failure plan passes its own; tests "
    "shorten them to provoke deregistration)":
        "repro.core.agent:AgentParams.heartbeat_timeout "
        "repro.core.agent:AgentParams.heartbeat_miss_threshold",
    "constants of a documented model, one record per model (E11's failure "
    "model, GalICS semi-analytic model, MPI cost model, RAMSES / survey "
    "performance models, NFS and link contention, the run namelist, the "
    "traffic mix)":
        "repro.services.workflow:FailurePlan "
        "repro.galics.galaxymaker:SamParams "
        "repro.galics.galaxymaker:GalaxyMaker(params=) "
        "repro.ramses.parallel:MpiCostModel "
        "repro.ramses.parallel:ParallelStepModel "
        "repro.services.perfmodel:RamsesPerfModel "
        "repro.services.perfmodel:SurveyPerfModel "
        "repro.services.lensing_service:LensingServiceConfig "
        "repro.services.ramses_service:RamsesServiceConfig "
        "repro.ramses.simulation:RunConfig repro.platform.nfs:NfsVolume "
        "repro.sim.network:Host(cores=) repro.sim.network:Link "
        "repro.sim.traffic:TrafficConfig.mix "
        "repro.core.scheduling:DataLocalityPolicy(max_backlog=)",
    "an argument of a physics or numerics routine (adiabatic index, "
    "tolerance, kernel, transfer function), which tests check against an "
    "analytic or ported reference":
        "repro.ramses.quadpack repro.ramses.riemann "
        "repro.ramses.hydro:HydroSolver repro.ramses.hydro:HydroState "
        "repro.ramses.poisson:poisson_solve "
        "repro.ramses.gravity:GravitySolver "
        "repro.grafic.power_spectrum:PowerSpectrum(transfer=) "
        "repro.galics.press_schechter:press_schechter_dndlnm(aexp=) "
        "repro.galics.halomaker:find_halos(mean_separation=) "
        "repro.galics.treemaker:build_merger_tree(min_shared_fraction=) "
        "repro.ramses.cosmology:Cosmology.aexp_schedule(spacing=) "
        "repro.ramses.amr:AmrHierarchy.work_units "
        "repro.ramses.simulation:Snapshot.projected_density(axis=) "
        "repro.ramses.zoom:lagrangian_region(padding=) "
        "repro.ramses.zoom:run_zoom(seed=) "
        "repro.survey.lensing:_distance_table(n_samples=)",
    "a reference the tests compare the program against (power spectrum, "
    "Press-Schechter counts, cosmic-energy equation, Hilbert inverse, "
    "conserved totals, 2LPT start; ROADMAP item 3 needs a_of_t and "
    "f_growth)":
        "repro.galics.press_schechter:expected_halo_counts "
        "repro.galics.catalogs:HaloCatalog.mass_function "
        "repro.grafic.gaussian_field:measure_power_spectrum "
        "repro.grafic.power_spectrum:PowerSpectrum.sigma8_check "
        "repro.grafic.lpt:make_single_level_ic_2lpt "
        "repro.ramses.energy:LayzerIrvineMonitor "
        "repro.ramses.hilbert:hilbert_decode "
        "repro.ramses.hydro:HydroState.totals "
        "repro.ramses.cosmology:Cosmology.a_of_t "
        "repro.ramses.cosmology:Cosmology.f_growth "
        "repro.ramses.gravity:GravitySolver.density",
    "a read of run state that tests assert invariants through (no span "
    "left open, crash state, memo contents, queue head, pending outages)":
        "repro.obs.spans:SpanStore repro.core.sed:SeD.is_down "
        "repro.data.memo:MemoIndex.peek repro.sim.engine:Engine "
        "repro.sim.engine:Event repro.sim.failures:FailureInjector.pending "
        "repro.sim.network:Network.hosts repro.sim.rng:RandomStreams "
        "repro.ramses.amr:AmrLevel.n_leaves repro.survey.dag:SurveyDAG",
    "an entry point's size or layout, which tests set small (sweep widths, "
    "DAG shape, grid base, retry budget, chart size, CLI argv)":
        "repro.__main__:main(argv=) "
        "repro.experiments.ablation_scheduler:run_routing "
        "repro.experiments.report:ascii_gantt(width=) "
        "repro.experiments.report:ascii_series "
        "repro.obs.export:svg_gantt repro.obs.export:chrome_trace(process_name=) "
        "repro.obs.profiling:profile_report(top=) "
        "repro.survey.dag:DagExecutor repro.survey.pipeline:build_survey_dag "
        "repro.survey.grid:ParameterGrid",
    "deferred: only tests drive it, and deleting it deletes the tests that "
    "pin it; ROADMAP item 7 lists it for its own change":
        "repro.core.scheduling:PriorityListPolicy "
        "repro.galics.halo_properties "
        "repro.ramses.simulation:resume_run "
        "repro.ramses.simulation:config_from_namelist "
        "repro.ramses.simulation:SimulationResult.snapshot_at "
        "repro.ramses.namelist:Namelist.set_param "
        "repro.services.ramses_client:decode_center "
        "repro.ramses.cosmology:Cosmology.lookback "
        "repro.survey.lensing:comoving_distance "
        "repro.ramses.particles:ParticleSet.peculiar_velocity "
        "repro.ramses.amr:AmrHierarchy.cells_per_level "
        "repro.ramses.amr:AmrHierarchy.total_cells "
        "repro.galics.treemaker:MergerTree.descendant "
        "repro.galics.catalogs:Galaxy.disk_mass "
        "repro.grafic.ic:InitialConditions.is_zoom "
        "repro.grafic.ic:ZoomRegion.shrunk "
        "repro.survey.batch:SurveyBatch.summary "
        "repro.platform.grid5000:Cluster.sed_speed",
}

KEEP: Dict[str, str] = {key: reason for reason, keys in _KEPT.items()
                        for key in keys.split()}


def kept(hit: str) -> Optional[str]:
    """The most specific KEEP key covering ``hit``, if any."""
    covering = [key for key in KEEP
                if hit == key or hit.startswith((key + ".", key + "(",
                                                 key + ":"))]
    return max(covering, key=len) if covering else None


# -- AST pass: definitions and settable values --------------------------------

@dataclass
class Definition:
    key: str
    name: str
    path: str
    start: int
    end: int
    #: A method is reached through an attribute (``x.name``), never a bare
    #: name.
    is_method: bool = False


@dataclass
class Value:
    """A settable value: a defaulted field or parameter."""

    key: str
    #: Name a call site uses to reach it: the function, or the class for a
    #: field or an ``__init__`` parameter.
    callee: str
    name: str
    #: Position at a call site (``self`` / ``cls`` not counted); None for
    #: keyword-only.
    index: Optional[int]
    default: ast.expr
    #: Key of the definition the value belongs to.
    owner: str
    is_field: bool = False


@dataclass
class Inventory:
    definitions: List[Definition] = field(default_factory=list)
    values: List[Value] = field(default_factory=list)


def _python_files(top: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in ("__pycache__", "_build"))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _decorator_names(node) -> Set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated class attributes are
    constructor fields."""
    if "dataclass" in _decorator_names(node):
        return True
    return any((isinstance(b, ast.Name) and b.id == "NamedTuple")
               or (isinstance(b, ast.Attribute) and b.attr == "NamedTuple")
               for b in node.bases)


def _field_default(value: ast.expr) -> Optional[ast.expr]:
    """The default of a field assignment; None for ``field()`` without one."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        for kw in value.keywords:
            if kw.arg in ("default", "default_factory"):
                return kw.value
        return None
    return value


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _function_values(fn, key: str, callee: str,
                     skip_first: bool) -> List[Value]:
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    if skip_first:
        positional = positional[1:]
    out = []
    first_default = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(
            zip(positional[first_default:], args.defaults)):
        out.append(Value(f"{key}({arg.arg}=)", callee, arg.arg,
                         first_default + i, default, key))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append(Value(f"{key}({arg.arg}=)", callee, arg.arg, None,
                             default, key))
    return out


def collect_inventory(src: str) -> Inventory:
    inv = Inventory()
    package = os.path.join(src, "repro")
    for path in _python_files(package):
        rel = os.path.relpath(path, src)
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        tree = _parse(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module}:{node.name}"
                inv.definitions.append(Definition(
                    key, node.name, path, node.lineno, node.end_lineno))
                inv.values.extend(_function_values(node, key, node.name,
                                                   False))
            elif isinstance(node, ast.ClassDef):
                _collect_class(inv, node, module, path)
    return inv


def _collect_class(inv: Inventory, node: ast.ClassDef, module: str,
                   path: str) -> None:
    ckey = f"{module}:{node.name}"
    inv.definitions.append(Definition(ckey, node.name, path, node.lineno,
                                      node.end_lineno))
    if _is_record(node):
        index = 0
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            default = (_field_default(stmt.value)
                       if stmt.value is not None else None)
            if default is not None:
                inv.values.append(Value(
                    f"{ckey}.{stmt.target.id}", node.name, stmt.target.id,
                    index, default, ckey, is_field=True))
            index += 1
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = _decorator_names(stmt)
        skip_first = "staticmethod" not in decorators
        if stmt.name == "__init__":
            inv.values.extend(_function_values(stmt, ckey, node.name,
                                               skip_first))
            continue
        if _is_dunder(stmt.name):
            continue
        key = f"{ckey}.{stmt.name}"
        inv.definitions.append(Definition(key, stmt.name, path, stmt.lineno,
                                          stmt.end_lineno, is_method=True))
        inv.values.extend(_function_values(stmt, key, stmt.name,
                                           skip_first))


# -- AST pass: what the non-test callers do -----------------------------------

#: A value a caller passed: ``None`` when it is non-default outright, else
#: what it forwards -- ``("param", function key, name)`` for an enclosing
#: parameter, ``("field", name)`` for a config attribute -- or the literal.
Passed = Optional[Tuple]


@dataclass
class Usage:
    #: (identifier, path, line, is_attribute) of every load of a name or
    #: attribute.
    refs: List[Tuple[str, str, int, bool]] = field(default_factory=list)
    #: callee -> [(keyword or position, passed)]; "**" for unknown keywords.
    calls: Dict[str, List[Tuple[object, Passed]]] = field(default_factory=dict)
    #: keyword -> [passed] from ``replace(obj, k=...)`` on any record.
    replaced: Dict[str, List[Passed]] = field(default_factory=dict)
    #: Attributes assigned, augmented or mutated in place (``x.a = v``,
    #: ``x.a += v``, ``x.a.append(v)``, ``x.a[k] = v``): a record field
    #: written this way is run state, not a knob.  ``self.a`` counts only
    #: inside the class that declares ``a``, as ``(class, a)``.
    stored: Set[object] = field(default_factory=set)


def _callers(root: str) -> Iterator[str]:
    for top in ("src", "benchmarks", "examples"):
        for path in _python_files(os.path.join(root, top)):
            name = os.path.basename(path)
            if name.startswith("test_") or name == "conftest.py":
                continue
            yield path


def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


_MUTATORS = frozenset({"append", "extend", "insert", "add", "update",
                       "setdefault", "pop", "remove", "clear", "discard"})


class _CallerVisitor(ast.NodeVisitor):
    def __init__(self, usage: Usage, path: str, module: Optional[str],
                 record_fields: Set[str]):
        self.usage = usage
        self.path = path
        self.module = module
        self.record_fields = record_fields
        self.scopes: List[Tuple[str, Dict[str, ast.arg], Dict]] = []
        self.classes: List[ast.ClassDef] = []

    # scopes ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node) -> None:
        key = None
        if self.module is not None:
            if self.classes and not self.scopes:
                cls = self.classes[-1].name
                key = (f"{self.module}:{cls}" if node.name == "__init__"
                       else f"{self.module}:{cls}.{node.name}")
            elif not self.classes and not self.scopes:
                key = f"{self.module}:{node.name}"
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        defaults: Dict[str, ast.expr] = {}
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            defaults[arg.arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults[arg.arg] = default
        params = {a.arg: a for a in positional + list(args.kwonlyargs)}
        self.scopes.append((key, params, defaults))
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # references --------------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.usage.refs.append((node.id, self.path, node.lineno, False))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.usage.refs.append((node.attr, self.path, node.lineno, True))
        else:
            self._store(node)
        self.generic_visit(node)

    def _store(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            if self.classes:
                self.usage.stored.add((self.classes[-1].name, target.attr))
        else:
            self.usage.stored.add(target.attr)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store(node.target)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.ctx, ast.Load):
            self._store(node.value)
        self.generic_visit(node)

    # calls -------------------------------------------------------------------
    def _passed(self, value: ast.expr) -> Passed:
        if isinstance(value, ast.Constant):
            return ("const", value.value)
        if isinstance(value, ast.Name) and self.scopes:
            key, params, defaults = self.scopes[-1]
            if value.id in params:
                if key is None or value.id not in defaults:
                    return None  # a caller's own required argument
                return ("param", key, value.id)
        if (isinstance(value, ast.Attribute)
                and value.attr in self.record_fields
                and not (isinstance(value.value, ast.Name)
                         and value.value.id == "self")):
            return ("field", value.attr)
        return None

    def _record(self, callee: str, slot: object, passed: Passed) -> None:
        self.usage.calls.setdefault(callee, []).append((slot, passed))

    def visit_Call(self, node: ast.Call) -> None:
        callee = _callee_name(node.func)
        args = list(node.args)
        keywords = list(node.keywords)
        if callee == "partial" and args:
            callee = _callee_name(args[0])
            args = args[1:]
        elif callee == "Task":
            # run_tasks(Task(func=f, args=(...))) calls f(*args).
            given = {kw.arg: kw.value for kw in keywords}
            task_args = given.get("args")
            if "func" in given and isinstance(task_args, ast.Tuple):
                for kw in keywords:
                    self._record(callee, kw.arg, self._passed(kw.value))
                callee = _callee_name(given["func"])
                args = list(task_args.elts)
                keywords = []
        if (isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Attribute)):
            self._store(node.func.value)
        if (callee == "__init__" and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _callee_name(node.func.value.func) == "super"
                and self.classes and self.classes[-1].bases):
            callee = _callee_name(self.classes[-1].bases[0])
        if callee in ("getattr", "hasattr") and len(args) >= 2 \
                and isinstance(args[1], ast.Constant) \
                and isinstance(args[1].value, str):
            self.usage.refs.append((args[1].value, self.path, node.lineno,
                                    True))
        if callee in ("replace", "_replace"):
            for kw in node.keywords:
                if kw.arg is not None:
                    self.usage.replaced.setdefault(kw.arg, []).append(
                        self._passed(kw.value))
        elif callee is not None:
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    self._record(callee, ("*", i), None)
                    break
                self._record(callee, i, self._passed(arg))
            for kw in keywords:
                if kw.arg is None:
                    if not self._cli_dispatch(node):
                        self._record(callee, "**", None)
                else:
                    self._record(callee, kw.arg, self._passed(kw.value))
        self.generic_visit(node)

    def _cli_dispatch(self, node: ast.Call) -> bool:
        """``row.run(**kwargs)`` in the CLI: read by :func:`_cli_keywords`."""
        return (self.path.endswith(os.path.join("repro", "__main__.py"))
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run")


def _cli_keywords(main_path: str, usage: Usage) -> None:
    """Record what ``python -m repro <row> --flag`` passes to ``row.run``:
    each ``Opt`` keyword, plus the keys ``main`` stores into ``kwargs``."""
    tree = _parse(main_path)
    opts: Dict[str, str] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _callee_name(node.value.func) == "Opt"):
            opts[node.targets[0].id] = node.value.args[1].value
    stored = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "kwargs"
                and isinstance(node.slice, ast.Constant)):
            stored.add(node.slice.value)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and _callee_name(node.func) == "Experiment"):
            continue
        run = _callee_name(node.args[1])
        keywords = set(stored)
        for kw in node.keywords:
            if kw.arg != "options":
                continue
            for opt in kw.value.elts:
                if isinstance(opt, ast.Name):
                    keywords.add(opts[opt.id])
                else:
                    keywords.add(opt.args[1].value)
        for keyword in keywords:
            usage.calls.setdefault(run, []).append((keyword, None))


def collect_usage(root: str, inv: Inventory) -> Usage:
    usage = Usage()
    src = os.path.join(root, "src")
    record_fields = {v.name for v in inv.values if v.is_field}
    for path in _callers(root):
        module = None
        if path.startswith(os.path.join(src, "repro") + os.sep):
            rel = os.path.relpath(path, src)
            module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        _CallerVisitor(usage, path, module, record_fields).visit(_parse(path))
    _cli_keywords(os.path.join(src, "repro", "__main__.py"), usage)
    return usage


# -- AST pass: hits -----------------------------------------------------------

def _same_literal(passed: Passed, default: ast.expr) -> bool:
    return (passed is not None and passed[0] == "const"
            and isinstance(default, ast.Constant)
            and type(passed[1]) is type(default.value)
            and passed[1] == default.value)


def find_hits(inv: Inventory, usage: Usage) -> Tuple[List[str], List[str]]:
    """(definitions no caller references, values no caller sets)."""
    refs: Dict[str, List[Tuple[str, int, bool]]] = {}
    for name, path, line, is_attribute in usage.refs:
        refs.setdefault(name, []).append((path, line, is_attribute))
    dead = set()
    for d in inv.definitions:
        if _is_dunder(d.name):
            continue
        if not any((path != d.path or not d.start <= line <= d.end)
                   and (is_attribute or not d.is_method)
                   for path, line, is_attribute in refs.get(d.name, ())):
            dead.add(d.key)

    by_key = {v.key: v for v in inv.values}
    fields_by_name: Dict[str, List[Value]] = {}
    for v in inv.values:
        if v.is_field:
            fields_by_name.setdefault(v.name, []).append(v)

    def sources(v: Value) -> List[Passed]:
        out: List[Passed] = []
        for slot, passed in usage.calls.get(v.callee, ()):
            if slot == "**" or slot == v.name or slot == v.index or (
                    isinstance(slot, tuple) and v.index is not None
                    and v.index >= slot[1]):
                out.append(passed)
        if v.is_field:
            out.extend(usage.replaced.get(v.name, ()))
        return out

    is_set: Dict[str, bool] = {
        v.key: v.is_field and (v.name in usage.stored
                               or (v.callee, v.name) in usage.stored)
        for v in inv.values}
    changed = True
    while changed:
        changed = False
        for v in inv.values:
            if is_set[v.key]:
                continue
            for passed in sources(v):
                if passed is None:
                    hit = True
                elif passed[0] == "const":
                    hit = not _same_literal(passed, v.default)
                elif passed[0] == "param":
                    fwd = by_key.get(f"{passed[1]}({passed[2]}=)")
                    hit = fwd is None or is_set[fwd.key] or (
                        ast.dump(fwd.default) != ast.dump(v.default))
                else:
                    # A record built from another record's field; a copy of
                    # its own field (``R(x=other.x)``) tells nothing.
                    others = [f for f in fields_by_name.get(passed[1], ())
                              if f.callee != v.callee]
                    hit = not others or any(is_set[f.key] for f in others)
                if hit:
                    is_set[v.key] = changed = True
                    break
    unset = sorted(v.key for v in inv.values
                   if not is_set[v.key] and v.owner not in dead)
    return sorted(dead), unset


def audit(root: str) -> Tuple[Tuple[int, int, int, int], List[str]]:
    """The AST pass over the tree at ``root``: (definitions, of them hits,
    settable values, of them hits) and the hits."""
    inv = collect_inventory(os.path.join(root, "src"))
    dead, unset = find_hits(inv, collect_usage(root, inv))
    sizes = (len(inv.definitions), len(dead), len(inv.values), len(unset))
    return sizes, dead + unset


# -- reach pass ---------------------------------------------------------------

#: CLI arguments per registry row: CI's quick sweeps and exports where it
#: has them (paths are relative to a scratch directory).
QUICK_ARGS: Dict[str, List[str]] = {
    "figure2": [],
    "figure3": [],
    "data-locality": ["--n-sub", "12"],
    "load": ["--loads", "3,8", "--duration", "15", "--clients", "500",
             "--churn", "1", "--memo", "on", "--zipf", "0.3,2.5"],
    "survey": ["--points", "2x2", "--resolution", "32", "--planes", "4",
               "--zooms", "1", "--routings", "pull,push",
               "--data-policies", "volatile,persistent",
               "--batch-dir", "batches"],
    "campaign": ["--n-sub", "20", "--trace", "trace.json", "--gantt-svg",
                 "gantt.svg", "--profile", "--trace-csv", "trace.csv"],
}


def reach(root: str) -> Set[Tuple[str, str]]:
    """(module path, function name) of every ``src/repro`` function the
    quick runs call."""
    import trace

    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "benchmarks", "e2e")]

    def load():
        # Imported under the tracer: some functions run only at import.
        from workloads import WORKLOADS

        from repro.__main__ import _EXPERIMENTS, main
        return WORKLOADS, _EXPERIMENTS, main

    tracer = trace.Trace(count=0, trace=0, countfuncs=1)
    workloads, experiments, main = tracer.runfunc(load)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name in experiments:
                argv = [name] + QUICK_ARGS.get(name, [])
                print(f"reach: python -m repro {' '.join(argv)}",
                      file=sys.stderr, flush=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    tracer.runfunc(main, argv)
            for name, workload in workloads.items():
                print(f"reach: e2e {name} (quick)", file=sys.stderr,
                      flush=True)
                workdir = tempfile.mkdtemp(dir=tmp)
                tracer.runfunc(workload.run, 2007, workload.quick, False,
                               workdir)
        finally:
            os.chdir(cwd)
    package = os.path.join(src, "repro") + os.sep
    return {(os.path.relpath(filename, src), funcname.rsplit(".", 1)[-1])
            for filename, _module, funcname in tracer.results().calledfuncs
            if filename.startswith(package)}


def unreached(root: str, reached: Set[Tuple[str, str]]) -> List[str]:
    src = os.path.join(root, "src")
    inv = collect_inventory(src)
    out = []
    for d in inv.definitions:
        if _is_dunder(d.name) or d.name[:1].isupper():
            continue  # classes are not called; their methods are listed
        if (os.path.relpath(d.path, src), d.name) not in reached:
            out.append(d.key)
    return sorted(out)


# -- report -------------------------------------------------------------------

def _before(root: str, rev: str) -> Tuple[int, int, int, int]:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", root, "archive", rev, "src", "benchmarks",
             "examples"], check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        return audit(tmp)[0]


def report(root: str, before: Optional[str], with_reach: bool) -> str:
    sizes, hits = audit(root)
    lines = [
        "# tools/knob_audit.py: definitions and settable values of src/repro",
        "# that no non-test caller (src/, benchmarks/, examples/) uses.",
        "# Regenerate: python tools/knob_audit.py --write [--before REV]",
        "",
    ]
    row = ("{:<8} {:>5} definitions, {:>4} only tests use; "
           "{:>5} settable values, {:>4} only tests set")
    if before is not None:
        lines.append(row.format(f"{before[:7]}:", *_before(root, before)))
    lines.append(row.format("now:", *sizes))
    by_reason: Dict[str, List[str]] = {}
    for hit in hits:
        key = kept(hit)
        by_reason.setdefault(KEEP[key] if key else "NOT IN KEEP",
                             []).append(hit)
    lines += ["", f"## AST pass: {len(hits)} hits, by the reason KEEP "
                  f"gives"]
    for reason, hits in by_reason.items():
        lines += ["", f"# {reason}"] + hits
    if with_reach:
        missed = unreached(root, reach(root))
        lines += ["", f"## Reach pass: {len(missed)} functions no quick run "
                      f"calls (informational)",
                  "# runs: python -m repro <row> with QUICK_ARGS, and the "
                  "five e2e workloads at",
                  "# quick sizes, on the compiled cores (so the pure-Python "
                  "mirrors show here)"]
        lines += missed
    return "\n".join(lines) + "\n"


def check(root: str) -> int:
    _sizes, hits = audit(root)
    covering = {hit: kept(hit) for hit in hits}
    problems = [f"{hit}: only tests use it; delete it, give it a workload, "
                f"or name it in KEEP with a reason"
                for hit, key in covering.items() if key is None]
    problems += [f"{key}: in KEEP but covers no hit; drop it from KEEP"
                 for key in sorted(KEEP.keys() - set(covering.values()))]
    for line in problems:
        print(line)
    print(f"knob audit: {len(hits)} hits, {len(KEEP)} kept, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="AST pass only; exit 1 on a hit not in KEEP")
    parser.add_argument("--write", action="store_true",
                        help=f"also write the report to {OUTPUT}")
    parser.add_argument("--before", metavar="REV",
                        help="also count the AST hits of git revision REV")
    parser.add_argument("--no-reach", action="store_true",
                        help="skip the reach pass")
    args = parser.parse_args(argv)
    if args.check:
        return check(ROOT)
    text = report(ROOT, args.before, not args.no_reach)
    sys.stdout.write(text)
    if args.write:
        with open(OUTPUT, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
