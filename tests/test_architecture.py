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
* so does the pencil engine's process transport: ``perf/pencil.py`` is a
  thread pool with no pool of processes, no retry loop, no timeout and
  no shard knobs — the domain engine is the one supervised transport;
* so does the domain engine's staged mesh FFT: field solves run on the
  parent's default backend, the engine protocol has no FFT hook, and the
  domain worker imports no FFT library;
* so does the scipy FFT path: the spectral backend is ``numpy.fft`` with
  no fallback, no worker threads and no knob, and the modules a kinetic
  run loads import scipy on use only, never at module level;
* so does the domain engine's CFL cap and its host fallback: the
  kernel's whole-cell sums have no origin (no ``cumsum`` in
  ``core/advection.py``), ghost width is the one limit, and
  ``ghost_width`` is the one ghost formula.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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
)


def modules():
    """``(dotted module name, path)`` of every source file of the package."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def imports(name: str, path: Path):
    """``(imported module, imported name or None, line)`` for every import
    statement in the file, relative imports resolved against ``name``."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
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


def test_the_pencil_engine_is_threads_only():
    path = SRC / "repro" / "perf" / "pencil.py"
    offenders = [
        f"pencil.py:{line} imports {imported or module}"
        for module, imported, line in imports("repro.perf.pencil", path)
        if module.split(".")[0] == "multiprocessing"
        or "retry_with_backoff" in (module.split(".")[-1], imported)
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


if __name__ == "__main__":
    for check in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        check()
    print("architecture: ok")
