"""Import-graph rules of ``src/repro``, checked on the syntax tree.

Stdlib only (``ast``): CI runs this file in the lint job, before any
dependency is installed, as ``python tests/test_architecture.py``.

* a module's underscore names are its own — nobody imports them;
* ``repro.core`` does not know ``repro.parallel`` exists: engines reach
  the solver through :mod:`repro.core.engine`, never the reverse;
* the second solver and its duck-type marker stay deleted;
* so do the layout runtime and the kernel's A/B toggles: ``layout`` is a
  parameter of ``core.advection.advect`` alone (the benchmark's
  pack-gain probe passes it) and no call in the package sets it;
* so does the rows-last sweep kernel: no roll copies, no stencil gather
  per interface, no pad helper, no ``roll`` / ``rolled`` / ``pack``
  switch back to them;
* so does the per-sign row split: one flux kernel run per block, no
  mirrored flux, no arena scope sizing a row subset;
* so does the domain worker's overlap machinery: halos are ghost planes
  the kernel lands (``advect(halo=)``, passed by the worker's one sweep
  call alone), so no halo thread, no slab or pad scratch, no sweep mode,
  no ``overlap`` option;
* so does the second block decomposition and the virtual-MPI replay of
  the halos: ``BlockDecomposition`` is the one layout, the domain worker
  is the one ``halo=`` caller, and the engine counts its halo bytes in
  closed form with no per-pair message table;
* the domain engine does not import the pencil engine, and it has no
  degrade rung: a worker lost past its retries ends the run, and the
  checkpoint chain is the recovery;
* so does the pencil engine's process transport: ``perf/pencil.py`` is a
  thread pool with no pool of processes, no retry loop, no timeout and
  no shard knobs — the domain engine is the one supervised transport,
  and its retry is a plain loop in its command round;
* so do the diagnostics worker and its queue: ``repro.serve`` imports
  no ``threading`` or ``queue``, and a product is stored on the step
  thread, inside the runner's ``diagnostics_submit`` section;
* so does the domain engine's staged mesh FFT: field solves run on the
  parent's default backend, the engine protocol has no FFT hook, and the
  domain worker imports no FFT library;
* so does the scipy FFT path: the spectral backend is ``numpy.fft`` with
  no fallback, no worker threads and no knob, and the modules a kinetic
  run loads import scipy on use only, never at module level;
* so do the hybrid's scipy quadratures: the cosmology integrals a run
  takes (background, growth, power) import no scipy at all;
* so does the domain engine's CFL cap and its host fallback: the
  kernel's whole-cell sums have no origin (no ``cumsum`` in
  ``core/advection.py``), ghost width is the one limit, and
  ``ghost_width`` is the one ghost formula;
* so does unmerged KDK: the drivers step Eq. (5) as a leapfrog with the
  pending half kick carried, and the solver has no two-kick step taking
  a second field callback;
* so do the per-scenario steppers and the drivers' own copies of that
  leapfrog: the three drivers extend ``core.leapfrog.LeapfrogDriver``
  (the owed kick, the field slot, the checkpoint), and
  ``runtime/scenarios.py`` has one ``Stepper``;
* every module is reached: the CLI, a benchmark or an example imports
  it, following a name imported from a package to the submodule that
  defines it — tests and package re-exports do not count, so code that
  no run reaches is deleted rather than kept alive by its own tests;
* so is every public name: each public top-level function or class and
  each public method of ``src/repro`` is named outside ``tests/`` — as an
  identifier, an attribute, an imported name or a string constant, in
  the package, a benchmark or an example — other than in ``__all__``,
  an ``_EXPORTS`` table, a package re-export or its own body; a name
  that stays unread on purpose is listed in ``NAMES_KEPT_BY_DESIGN``
  with its reader, and the deleted ones are in ``RETIRED``;
* the ``__init__`` of ``repro.core``, ``repro.perf``, ``repro.parallel``
  and ``repro.nbody`` imports no submodule at module level: a package
  name resolves through the ``_EXPORTS`` table on first use, so a launch
  loads only the stack its run uses.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = SRC.parent
# spelled in halves so that grepping the tree for them finds only code
RETIRED = (
    "is_domain" + "_engine", "DomainSolver" + "Adapter",
    "Layout" + "Engine", "layout" + "_decision", "get_default" + "_layout",
    "UNIFORM" + "_FAST", "POOLED" + "_LIMITER",
    "roll" + "_into", "_gather" + "_stencil", "_zero" + "_pad",
    "interface" + "_flux", "_mirror" + "_flux",
    "fill" + "_halo", "state" + ".scratch(",  # _WorkerState's slab scratch
    "Sweep" + "Timeout", "_pencil" + "_worker",
    "min_shard" + "_bytes", "pencils_per" + "_worker",
    "_Domain" + "Backend", "_dist" + "_fft", "_fft" + "_probe",
    "_fft" + "_pass", "spectral" + "_backend",
    "_scipy" + "_fft", "REPRO_FFT" + "_WORKERS", "fft" + "_fallback",
    "n_fall" + "backs",
    "_CFL" + "_LIMIT", "_cfl" + "_fallback", "cfl" + "_fallbacks",
    "required" + "_ghost",
    # unmerged KDK: the solver's two-kick step and its second field hook
    ".strang" + "_step(", "recompute" + "_accel", "second" + "_accel",
    "dt_kick" + "_second", "kick" + "2 =",
    # the chunked snapshot format and the checksum switch
    "write_snapshot" + "_chunked", "read_snapshot" + "_field",
    "snapshot" + "_manifest", "n_" + "chunks",
    "REPRO_SNAPSHOT" + "_CRC", "CHECKSUMS" + "_ENABLED",
    # the even-only decomposition, its velocity drift and the exchange's CFL cap
    "Domain" + "Decomposition",
    "decomposed_velocity" + "_advect", "cfl" + "_max",
    # the diagnostics queue policy: block, a queue of 2, spectra always;
    # then the queue and its worker (the product is stored on the step
    # thread)
    "on" + "_full", "queue" + "_max", "diagnostics" + "_dropped",
    "QUEUE" + "_MAX", "diagnostics_" + "enqueued",
    # the campaign's executor ladder, its unsupervised dispatch and the
    # hand-rolled hybrid loop beside the runner
    "DEGRADE" + "_CHAIN", "should" + "_degrade", "supervision" + "_degrade",
    "hybrid" + "_demo", "no" + "_supervise",
    # the two off-family schemes, their helpers, and the section 8
    # Vlasov-Maxwell package
    "slweno" + "5", "pfc" + "2", "use" + "_weno", "use" + "_pfc",
    "_weno" + "_fractional", "_pfc" + "_fractional",
    "weno" + "_smoothness", "weno" + "_substencil", "minmod" + "_into",
    "Vlasov" + "Maxwell",
    # the per-scenario steppers and the drivers' second copies of the
    # leapfrog protocol: one driver base, one Stepper
    "Plasma" + "Stepper", "Gravitational" + "Stepper", "Hybrid" + "Stepper",
    "_OneSolve" + "PerF", "save" + "_checkpoint", "step" + "_static",
    # the unmerged splitting path beside the drivers' leapfrog, and the
    # particle integrator no run constructs
    "Split" + "Stepper", "Split" + "table", "COMPOSI" + "TIONS",
    "lie" + "_step", "strang" + "_step", "ruth" + "_step",
    "Leapfrog" + "KDK", "step" + "_cosmological",
    # names no run, benchmark or example read, and the option values no
    # caller passed
    "gravity" + "_source", "potential" + "_mesh", "fields" + "_mesh",
    "def potential" + "(", "def gradient" + "(", "_GREEN" + "S", '"fd' + '2"',
    "max_drift" + "_cfl", "max_kick" + "_cfl", "x_center" + "_broadcast",
    "x" + "_mesh", "u" + "_mesh", "empty" + "_f", "total" + "_density",
    "rho_mean" + "_matter", "omega_m" + "_of_a", "a" + "_of_z", "z" + "_of_a",
    "cosmic" + "_time", "time_in" + "_gyr", "time" + "_cgs", "to" + "_cgs_",
    "f_of" + "_velocity", "velocity_dispersion" + "_1d", "sigma" + "_r(",
    "absolute" + "_drift", "_worst" + "_abs", "roofline" + "_time",
    "alltoall" + "_time", "p2p_bytes" + "_by_pair", "allreduce" + "_max",
    "memory" + "_ops", "shuffle" + "_pair", "dimensionless" + "_power",
    "def drain" + "(", ".minimum" + "_image(",
    # the domain engine's domain -> serial degrade rung and the retry
    # helper it had to itself
    "_permanent" + "_degrade", "domain" + "_degraded", "retry_with" + "_backoff",
    # the domain engine's host mirror of f and its sync protocol: f is
    # one of two shared buffers, read in place
    "gather" + "_count", "scatter" + "_count", "_gather_into" + "_host",
    "_scatter" + "_host", "_host" + "_dirty", "_host" + "_stale",
    "_block" + "_view", "seg" + "_names", "block" + "_shapes",
    "own" + "_bounds", "domain" + "_gather", "domain" + "_scatter",
    "wants" + "_state", "_Fault" + "Pool", "_inject" + "_call",
    # the virtual-MPI replay: its communicator, log, exchange, drift and
    # pencil FFT, and the engine's per-pair halo table it was diffed with
    "Virtual" + "Comm", "Comm" + "Log", "exchange" + "_ghosts",
    "decomposed_spatial" + "_advect", "pencil" + "_fft3d", "Pencil" + "Grid",
    "halo" + "_traffic",
    # the block decomposition's copy into rank blocks (and its inverse):
    # the workers take local_slice bounds, f never leaves its buffers
    "def scatter" + "(",
    # the hybrid's own schedule loop beside the runner's
    "def run(self, sched" + "ule",
    # helpers only tests read: they live in tests/helpers.py
    "l1" + "_norm", "casi" + "mir", "entro" + "py", "dispersion" + "_tensor",
    "gaussian" + "_field(", "uniform" + "_random", "uniform" + "_lattice",
)


def modules():
    """``(dotted module name, path)`` of every source file of the package."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def _from_module(name: str, path: Path, node: ast.ImportFrom) -> str:
    """The module a ``from ... import`` names, resolved against ``name``."""
    base = node.module or ""
    if node.level:
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    return base


def imports(name: str, path: Path):
    """``(imported module, imported name or None, line)`` for every import
    statement in the file, relative imports resolved against ``name``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = _from_module(name, path, node)
            for alias in node.names:
                yield base, alias.name, node.lineno


def test_no_private_name_crosses_a_module_boundary():
    offenders = []
    for name, path in modules():
        for module, imported, line in imports(name, path):
            if not module.startswith("repro"):
                continue
            private = [part for part in module.split(".") + [imported or ""]
                       if part.startswith("_") and not part.startswith("__")]
            if private:
                offenders.append(f"{path.relative_to(SRC)}:{line} imports "
                                 f"{private[0]} from {module}")
    assert not offenders, "\n".join(offenders)


def test_core_does_not_import_parallel():
    offenders = [
        f"{path.relative_to(SRC)}:{line} imports {module}"
        for name, path in modules() if name.startswith("repro.core")
        for module, imported, line in imports(name, path)
        if f"{module}.{imported}".startswith("repro.parallel")
    ]
    assert not offenders, "\n".join(offenders)


def test_retired_identifiers_stay_retired():
    assert not (SRC / "repro" / "plasma").exists()
    offenders = [
        f"{path.relative_to(SRC)} mentions {word}"
        for _, path in modules() for word in RETIRED
        if word in path.read_text()
    ]
    assert not offenders, "\n".join(offenders)


def test_layout_is_a_parameter_of_advect_alone():
    assert not (SRC / "repro" / "perf" / "layout.py").exists()
    offenders = []
    for name, path in modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                if any(kw.arg == "layout" for kw in node.keywords):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                     "passes layout=")
            elif isinstance(node, ast.AnnAssign):  # a dataclass field
                if getattr(node.target, "id", None) == "layout":
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                     "declares a layout field")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == "layout" for a in params) and (
                    name, node.name
                ) != ("repro.core.advection", "advect"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                     f"{node.name} declares layout")
    assert not offenders, "\n".join(offenders)


def test_the_arena_has_no_row_subset_scope():
    path = SRC / "repro" / "perf" / "arena.py"
    (arena,) = [
        node for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "ScratchArena"
    ]
    members = {getattr(node, "name", None) for node in arena.body}
    assert "scaled" not in members
    assert "_scale" not in ast.unparse(arena)


def _kernel_functions():
    """``(path, function node)`` over the two modules of the sweep kernel."""
    for module in ("advection", "limiters"):
        path = SRC / "repro" / "core" / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def test_the_rows_last_kernel_stays_deleted():
    offenders = []
    for path, func in _kernel_functions():
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for name in sorted(params & {"roll", "rolled", "pack"}):
            offenders.append(f"{path.name}:{func.lineno} {func.name} declares {name}")
        if path.name != "advection.py":
            continue
        # what is looked up by index is phi, once per call, never one
        # stencil row after another
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                    ("take_along_axis", "_add_lookup")
                ):
                    offenders.append(f"{path.name}:{node.lineno} gathers inside a loop")
    assert not offenders, "\n".join(offenders)


def test_the_whole_cell_sums_have_no_origin():
    """S(i, k) adds the k cells upstream of its interface one by one: no
    prefix sum, whose rounding would move with a block's first plane."""
    path = SRC / "repro" / "core" / "advection.py"
    assert "cumsum" not in path.read_text()


def _tree(*parts: str) -> ast.Module:
    path = SRC.joinpath("repro", *parts)
    return ast.parse(path.read_text(), str(path))


def test_the_domain_worker_runs_no_helper_thread():
    path = SRC / "repro" / "parallel" / "workers.py"
    assert not [line for module, _, line
                in imports("repro.parallel.workers", path)
                if module.split(".")[0] == "threading"]


def test_the_diagnostics_tier_runs_no_thread():
    offenders = [f"{path.relative_to(SRC)}:{line} imports {module}"
                 for name, path in modules() if name.startswith("repro.serve")
                 for module, _, line in imports(name, path)
                 if module.split(".")[0] in ("threading", "queue")]
    assert not offenders, "\n".join(offenders)


def test_the_domain_worker_runs_no_fft():
    path = SRC / "repro" / "parallel" / "workers.py"
    offenders = [f"workers.py:{line} imports {module}" for module, _, line
                 in imports("repro.parallel.workers", path)
                 if module.split(".")[0] == "scipy"]
    assert not offenders, "\n".join(offenders)


def _module_level(tree: ast.Module):
    """Every node of ``tree`` outside a function or class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_the_run_path_imports_scipy_on_use_only():
    offenders = []
    for parts in (("perf", "fft.py"), ("nbody", "direct.py"),
                  ("nbody", "phantom.py"), ("analysis", "halos.py")):
        for node in _module_level(_tree(*parts)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            offenders += [f"{'/'.join(parts)}:{node.lineno} imports {name}"
                          for name in names if name.split(".")[0] == "scipy"]
    assert not offenders, "\n".join(offenders)


def test_the_cosmology_integrals_import_no_scipy():
    """Kick and drift factors, growth and the sigma8 normalisation are
    fixed Gauss-Legendre rules on numpy: no scipy at any nesting level."""
    offenders = [f"cosmology/{module}.py:{line} imports {name}"
                 for module in ("background", "growth", "power", "quadrature")
                 for name, _, line in imports(
                     f"repro.cosmology.{module}",
                     SRC / "repro" / "cosmology" / f"{module}.py")
                 if name.split(".")[0] == "scipy"]
    assert not offenders, "\n".join(offenders)


def test_the_domain_engine_has_no_overlap_option():
    (init,) = [
        node for cls in ast.walk(_tree("parallel", "domain.py"))
        if isinstance(cls, ast.ClassDef) and cls.name == "DomainEngine"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    args = init.args
    assert "overlap" not in {a.arg for a in args.args + args.kwonlyargs}


def test_a_sweep_payload_carries_no_mode():
    """``("sweep", sweep, src, dst)``: the worker picks its halo from
    its neighbours, the parent sends every rank the same command."""
    payloads = [
        node for name, path in modules()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Tuple) and node.elts
        and isinstance(node.elts[0], ast.Constant) and node.elts[0].value == "sweep"
    ]
    assert payloads and all(len(p.elts) == 4 for p in payloads), \
        [ast.unparse(p) for p in payloads]
    (sweep,) = [node for node in ast.walk(_tree("parallel", "workers.py"))
                if isinstance(node, ast.FunctionDef) and node.name == "_sweep"]
    assert [a.arg for a in sweep.args.args] == ["state", "sweep", "src", "dst_role"]


def test_halo_is_passed_by_the_domain_worker_alone():
    callers = [
        path.relative_to(SRC).as_posix()
        for _, path in modules()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and any(kw.arg == "halo" for kw in node.keywords)
    ]
    assert callers == ["repro/parallel/workers.py"], callers


def test_the_domain_engine_does_not_import_the_pencil_engine():
    path = SRC / "repro" / "parallel" / "domain.py"
    offenders = [f"domain.py:{line} imports {module}.{imported}"
                 for module, imported, line in imports("repro.parallel.domain", path)
                 if f"{module}.{imported}".startswith("repro.perf.pencil")
                 or imported == "PencilEngine"]
    assert not offenders, "\n".join(offenders)


def test_the_pencil_engine_is_threads_only():
    path = SRC / "repro" / "perf" / "pencil.py"
    offenders = [
        f"pencil.py:{line} imports {imported or module}"
        for module, imported, line in imports("repro.perf.pencil", path)
        if module.split(".")[0] == "multiprocessing"
    ]
    assert not offenders, "\n".join(offenders)
    (init,) = [
        node for cls in ast.walk(_tree("perf", "pencil.py"))
        if isinstance(cls, ast.ClassDef) and cls.name == "PencilEngine"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    args = init.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert params == ["self", "n_workers"] and not (args.vararg or args.kwarg), params


#: Packages whose ``__init__`` imports nothing of its own: their names
#: resolve through ``_EXPORTS`` on first use, so a plasma run does not
#: load the domain engine, the pencil engine, the tree or the hybrid.
LAZY_PACKAGES = ("core", "perf", "parallel", "nbody")


def test_lazy_packages_import_no_submodule_at_module_level():
    offenders = []
    for package in LAZY_PACKAGES:
        path = SRC / "repro" / package / "__init__.py"
        tree = ast.parse(path.read_text(), str(path))
        for node in _module_level(tree):
            if isinstance(node, ast.ImportFrom):
                base = _from_module(f"repro.{package}", path, node)
                modules = [f"{base}.{a.name}" if _source(f"{base}.{a.name}")
                           else base for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            # the root package (its lazy_exports helper) is no submodule
            offenders += [f"{package}/__init__.py:{node.lineno} imports {m}"
                          for m in modules
                          if m.split(".")[0] == "repro" and m != "repro"]
        exports = _lazy_exports(tree)
        offenders += [f"{package}/__init__.py: _EXPORTS names {name} from "
                      f"{sub}, which has no such module"
                      for name, sub in exports.items()
                      if _source(f"repro.{package}.{sub}") is None]
    assert not offenders, "\n".join(offenders)


#: The package's own entry points; benchmarks and examples are the rest.
ENTRY = ("repro.cli", "repro.__main__")

#: Modules no entry point imports that stay anyway, each with its reader.
UNREACHED_BY_DESIGN = (
    # the Eqs. 9-10 shot-noise algebra the N-body comparator's S/N rests on
    "repro.analysis.shotnoise",
)


def _source(module: str) -> Path | None:
    """The file of a ``repro`` module or package, ``None`` if there is none."""
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _lazy_exports(tree: ast.Module) -> dict[str, str]:
    """A lazy package's ``_EXPORTS`` table: public name -> the submodule
    (relative to the package) that defines it, imported on first use."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]):
            return {k.value: v.value for k, v in zip(node.value.keys,
                                                     node.value.values)}
    return {}


def _defined_in(module: str, imported: str | None) -> str | None:
    """The plain module an import lands in: a package's name is followed
    through its ``__init__`` (a re-export, or an entry of its lazy
    ``_EXPORTS`` table) to the submodule that defines it, and a bare
    package import lands nowhere."""
    path = _source(module)
    if path is None or path.name != "__init__.py":
        return module if path else None
    if imported is None:
        return None
    if _source(f"{module}.{imported}"):
        return _defined_in(f"{module}.{imported}", None)
    tree = ast.parse(path.read_text(), str(path))
    lazy = _lazy_exports(tree)
    if imported in lazy:
        return _defined_in(f"{module}.{lazy[imported]}", imported)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == imported:
                    return _defined_in(_from_module(module, path, node), alias.name)
    return None  # defined in the __init__ itself


def reached_modules() -> set[str]:
    """Every module the CLI, a benchmark or an example imports, transitively."""
    todo = [(name, _source(name)) for name in ENTRY]
    todo += [(".".join(path.relative_to(ROOT).with_suffix("").parts), path)
             for path in sorted([*ROOT.glob("benchmarks/**/*.py"),
                                 *ROOT.glob("examples/*.py")])]
    reached = set()
    while todo:
        name, path = todo.pop()
        for module, imported, _ in imports(name, path):
            target = (_defined_in(module, imported)
                      if module.split(".")[0] == "repro" else None)
            if target and target not in reached:
                reached.add(target)
                todo.append((target, _source(target)))
    return reached


def test_every_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = {name for name, path in modules()
                 if path.name != "__init__.py" and name not in (*ENTRY, *reached)}
    assert unreached == set(UNREACHED_BY_DESIGN), (
        f"no entry point imports {sorted(unreached - set(UNREACHED_BY_DESIGN))}; "
        f"reached after all: {sorted(set(UNREACHED_BY_DESIGN) - unreached)}")


#: Public names no reader outside ``tests/`` names that stay anyway:
#: qualified name -> who reads it and why it stays.
NAMES_KEPT_BY_DESIGN = {
    "repro.nbody.direct.direct_accel_open":
        "the tree tests' reference: the exact open-boundary pair sum",
    "repro.nbody.direct.direct_accel_minimum_image":
        "the tree tests' reference: the exact minimum-image pair sum",
    "repro.machine.tofu.TorusMapping":
        "test_machine_scaling::test_neighbor_mapping_single_hop pins the "
        "single-hop rank mapping behind the cost model's hops=1",
    "repro.machine.tofu.TorusMapping.max_neighbor_hops":
        "test_machine_scaling::test_neighbor_mapping_single_hop: the hop "
        "count it pins",
    "repro.machine.tofu.TorusMapping.fits_fugaku":
        "test_machine_scaling::test_h1024_fits: the H1024 mapping fits "
        "Fugaku's torus",
    "repro.machine.a64fx.sustained_fraction":
        "the Table 1 sustained-fraction row in EXPERIMENTS.md",
    "repro.runtime.telemetry.read_telemetry":
        "the run-directory telemetry reader documented in docs/RUNTIME.md",
    "repro.runtime.telemetry.read_events":
        "the run-directory event reader documented in docs/RUNTIME.md",
    "repro.runtime.telemetry.event_sink":
        "the scoped event sink documented in docs/RUNTIME.md; tests "
        "capture a block's events with it",
    "repro.core.advection.fastpath_counters":
        "tests pin that row order gives uniform-k blocks",
    "repro.core.advection.reset_fastpath_counters":
        "tests zero the fast-path counters before a sweep they count",
    "repro.perf.fft.set_default_backend":
        "tests substitute the process-wide spectral backend",
    "repro.perf.fft.SpectralBackend.reset_counts":
        "tests zero the transform counts before a solve they count",
    "repro.cosmology.neutrino.RelicNeutrinoDistribution.mean_speed":
        "test_ic's oracle for the sampled relic-neutrino IC",
}


def definitions():
    """``(qualified name, node)`` of every public top-level function or
    class of the package and every public method of such a class,
    modules kept by design left out (their names stay with them)."""
    for name, path in modules():
        if name in UNREACHED_BY_DESIGN:
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{name}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from (
                    (f"{name}.{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_"))


def _is_listing(node: ast.AST, package: bool) -> bool:
    """``__all__``, an ``_EXPORTS`` table or a package re-export: a name
    listed there is offered, not read."""
    if isinstance(node, ast.Assign):
        return any(getattr(t, "id", None) in ("__all__", "_EXPORTS")
                   for t in node.targets)
    return package and isinstance(node, ast.ImportFrom)


def named(tree: ast.AST, package: bool = False):
    """Every name ``tree`` reads: identifiers, attributes, imported names
    and their aliases, and identifier-shaped string constants (a name
    looked up with ``getattr`` or wrapped by name)."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if _is_listing(node, package):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def unnamed_names() -> dict[str, int]:
    """Qualified public names no reader outside ``tests/`` names -> their
    length in lines. A name read only inside its own body is unnamed."""
    readers = [path for _, path in modules()]
    readers += [*ROOT.glob("benchmarks/**/*.py"), *ROOT.glob("examples/*.py")]
    counts = Counter(word for path in readers
                     for word in named(ast.parse(path.read_text(), str(path)),
                                       path.name == "__init__.py"))
    return {qualified: node.end_lineno - node.lineno + 1
            for qualified, node in definitions()
            if counts[node.name] <= sum(w == node.name for w in named(node))}


def test_every_public_name_is_named_outside_the_tests():
    unnamed = unnamed_names()
    kept = set(NAMES_KEPT_BY_DESIGN)
    assert set(unnamed) == kept, (
        "no reader outside tests/ names:\n" + "\n".join(
            f"  {name} ({unnamed[name]} lines)" for name in sorted(set(unnamed) - kept))
        + f"\nnamed after all: {sorted(kept - set(unnamed))}")
    assert all(NAMES_KEPT_BY_DESIGN.values())


if __name__ == "__main__":
    for check in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        check()
    print("architecture: ok")
