"""Checks on the library source and on the test tooling itself."""

import ast
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schurest import estimator, partitions
from schurest.states import random_mixed

ROOT = Path(__file__).resolve().parent.parent


def test_library_validates_without_assert():
    # assert statements vanish under `python -O`; runtime checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "schurest").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # with warnings as errors, a warning raised while the Hypothesis plugin
    # reports a failure turns into an INTERNALERROR that ends the session
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout[-2000:]
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_library_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle.
    # The timing tools hold to the same, so a runtime-only install runs them
    found = [
        f"{path.name}:{node.lineno}"
        for folder in (ROOT / "src" / "schurest", ROOT / "tools")
        for path in sorted(folder.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    ]
    assert found == []


def test_library_imports_no_private_name_across_modules():
    # a `_` name is its module's own; another module that imports it couples
    # itself to a layout only the defining module should know
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted((ROOT / "src" / "schurest").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "schurest")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_only_the_table_writer_reads_the_output_format():
    # each table report lists its columns once and hands them to one writer,
    # so CSV and JSON cannot drift apart inside a subcommand
    tree = ast.parse((ROOT / "src" / "schurest" / "cli.py").read_text())
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "format"
        and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    assert readers == {"_emit_table"}


def test_only_the_engine_plan_builds_the_grid_and_the_subsets():
    # the torus grid and the subset index arrays are built once per (n, d),
    # in the cached plan; another builder would rebuild them on every call
    tree = ast.parse((ROOT / "src" / "schurest" / "distribution.py").read_text())
    builders = {
        (func.name, ast.unparse(node.func))
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.indices", "combinations")
    }
    assert builders == {("_plan", "np.indices"), ("_plan", "combinations")}


def test_the_engine_takes_its_jacobi_trudi_blocks_only_through_the_helper():
    # _block_dets picks the closed form or the pivoted elimination by the
    # blocks' order; a det of the gathered blocks beside it would bypass
    # that choice, and only the e_j minors of rho_tilde go to np.linalg.det
    tree = ast.parse((ROOT / "src" / "schurest" / "distribution.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    engine = functions["_schur_coefficients"]
    gathers = [node for node in ast.walk(engine)
               if isinstance(node, ast.Subscript) and "plan.idx" in ast.unparse(node.slice)]
    takers = {ast.unparse(call.func) for call in ast.walk(engine) if isinstance(call, ast.Call)
              if any(arg is gather for arg in call.args for gather in gathers)}
    assert len(gathers) == 1 and takers == {"_block_dets"}
    dets = {name for name, func in functions.items() for node in ast.walk(func)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.det"}
    assert dets == {"_elementary"}


def load_op_times():
    """tools/op_times.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("op_times", ROOT / "tools" / "op_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_stage_timer_wraps_functions_that_exist():
    # tools/op_times.py reads a stage it cannot find as null, so a renamed
    # engine function would blank that column of every BENCH file it writes
    for owner, attr in load_op_times().STAGES.values():
        assert callable(getattr(importlib.import_module(owner), attr, None)), (owner, attr)


def test_a_failing_measurement_child_raises_runtime_error(tmp_path):
    # a checkout whose package fails on import makes the child exit at once;
    # the error names the checkout and carries the child's stderr
    package = tmp_path / "broken" / "src" / "schurest"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("this checkout is broken")\n')
    checkout = str(tmp_path / "broken")
    with pytest.raises(RuntimeError, match="this checkout is broken") as info:
        load_op_times().run_child(checkout)
    assert f"child on {checkout} failed" in str(info.value)


def bounds_callers(name):
    """The functions in bounds.py that call `name` by its bare name."""
    tree = ast.parse((ROOT / "src" / "schurest" / "bounds.py").read_text())
    return {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == name
    }


def test_only_the_search_driver_calls_the_renyi_curve():
    # the tail-bound searches are sent their divergences; a second caller of
    # renyi would be a second path to the curve, and a reason to memoize it
    assert bounds_callers("renyi") == {"_run"}


def test_only_the_renyi_search_runs_brent():
    # every refinement in bounds is a Renyi search; a second caller of the
    # Brent port would be a second search stack beside it
    assert bounds_callers("_brent_steps") == {"_renyi_search"}


def test_one_helper_proves_a_tail_bound_vacuous():
    # both searches ask _vacuous whether one divergence proves their bound
    # >= 1 at every order; a second copy of the test could drift from the
    # proof it rests on
    assert bounds_callers("_vacuous") == {"_above_search", "_below_search"}
    tree = ast.parse((ROOT / "src" / "schurest" / "bounds.py").read_text())
    comparers = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Compare)
        and any(isinstance(name, ast.Name) and name.id == "log_dim" for name in ast.walk(node))
    }
    assert comparers == {"_vacuous"}


def eigensolve_owners(path):
    """'file:Class.function' for each function or method in `path` that calls
    eigh or eigvalsh, by attribute (np.linalg.eigh) or by bare name."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("eigh", "eigvalsh"):
                    found.add(f"{path.name}:{'.'.join(scope) or '<module>'}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return found


def test_only_the_spectrum_diagonalizes_a_state():
    # a state is diagonalized once, by DensityMatrix.spectrum, and every
    # functional reads that; validate_state diagonalizes the raw input before
    # it is a state, and _renyi_orders the batched Renyi cores
    found = set().union(*map(eigensolve_owners, sorted((ROOT / "src" / "schurest").glob("*.py"))))
    assert found == {"states.py:DensityMatrix.spectrum", "states.py:validate_state",
                     "states.py:_renyi_orders"}


def test_a_report_pair_diagonalizes_each_state_once(monkeypatch):
    # estimate_report and tail_report read D, V, the Renyi curve and sigma's
    # spectrum from the same two decompositions; a repeat on the same states
    # reads them again without solving anything
    solves = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, solve=getattr(np.linalg, name), **kwargs):
            if np.ndim(a) == 2:
                solves.append(solve.__name__)
            return solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rho, sigma = random_mixed(3, seed=11), random_mixed(3, seed=12, floor=0.05)
    for expected in (2, 0):
        solves.clear()
        estimator.estimate_report(rho, sigma, 4)
        estimator.tail_report(rho, sigma, 4, 0.3)
        assert len(solves) <= expected, solves


def test_a_warm_report_pair_runs_the_engine_once(monkeypatch):
    # tail_report reads the outcome table that estimate_report built, from
    # distribution's one-table memo
    from schurest import distribution as module

    passes = []
    elementary = module._elementary
    monkeypatch.setattr(module, "_elementary", lambda *args: passes.append(1) or elementary(*args))
    pairs = [(random_mixed(3, seed=s), random_mixed(3, seed=s + 1, floor=0.05)) for s in (13, 15)]
    for rho, sigma in pairs:  # the first pair warms the (4, 3) tables
        passes.clear()
        estimator.estimate_report(rho, sigma, 4)
        estimator.tail_report(rho, sigma, 4, 0.3)
    assert len(passes) == 1


def test_only_state_file_loading_handles_overflow():
    # a quantity that can leave the float range is kept as an exact integer or
    # a log; only the CLI's reading of state-file input maps OverflowError
    found = []
    for path in sorted((ROOT / "src" / "schurest").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(name, ast.Name) and name.id == "OverflowError"
                for name in ast.walk(node.type)
            ):
                # the innermost function holding the handler, or the module
                owner = min((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.end_lineno - f.lineno, default=None)
                found.append(f"{path.name}:{owner.name if owner else '<module>'}")
    assert found == ["cli.py:_load_density"]


def test_only_the_pair_rule_compares_dimensions():
    # rho and sigma must act on one space; states.check_pair says so once,
    # and every functional, report and command asks it
    found = []
    for path in sorted((ROOT / "src" / "schurest").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and all(
                isinstance(side, ast.Attribute) and side.attr == "dim"
                for side in [node.left, *node.comparators]
            ):
                owner = min((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.end_lineno - f.lineno, default=None)
                found.append(f"{path.name}:{owner.name if owner else '<module>'}")
    assert found == ["states.py:check_pair"]


def cli_handlers(name):
    """The functions in cli.py with an except clause naming `name`."""
    tree = ast.parse((ROOT / "src" / "schurest" / "cli.py").read_text())
    return {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node.type))
    }


def test_cli_maps_library_errors_in_main():
    # main maps InputError to validation and any other ValueError to compute;
    # a command catches ValueError only to prefix the size it failed at
    assert cli_handlers("InputError") == {"main"}
    commands = {name for name in cli_handlers("ValueError") if name.startswith("cmd_")}
    assert commands == {"cmd_normality", "cmd_complexity_scan"}


def loaded_by_cli_import(module):
    """Whether a fresh `import schurest.cli` loads `module`."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, schurest.cli; print({module!r} in sys.modules)"],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is a test extra for high-precision references; loading it would
    # add to the start-up of every CLI process
    assert not loaded_by_cli_import("mpmath")


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.optimize and scipy.special cost about 0.6 s of each CLI
    # process's start-up, several times the import of the rest of the package
    assert not loaded_by_cli_import("scipy")


def test_partitions_all_names_exactly_its_public_definitions():
    # a stale name in __all__ breaks `from schurest.partitions import *`; a
    # cached function counts as the function it wraps
    defined = {
        name for name, value in vars(partitions).items()
        if not name.startswith("_")
        and (inspect.isfunction(inspect.unwrap(value)) or inspect.isclass(value))
        and value.__module__ == partitions.__name__
    }
    assert sorted(partitions.__all__) == sorted(defined)


@pytest.fixture
def bench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file; estimator.distribution,
    which an exact workload's set-up rebinds, is restored afterwards."""
    monkeypatch.setattr(estimator, "distribution", estimator.distribution)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_stage_timed_call_runs_the_engine(bench_workloads, tmp_path, monkeypatch):
    # the stage timer alternates two pairs per size; one pair called again
    # would read distribution's memo and time no engine stage at all
    from schurest import distribution as module

    op_times = load_op_times()
    monkeypatch.setattr(op_times, "STAGE_SECONDS", 0.0)
    workload = bench_workloads.make("exact-large", tiny=True)
    workload.setup(seed=1, workdir=str(tmp_path))
    passes = []
    elementary = module._elementary
    monkeypatch.setattr(module, "_elementary", lambda *args: passes.append(1) or elementary(*args))
    rows = op_times.stage_times(workload)
    assert [row["calls"] for row in rows.values()] == [3] * len(workload.sizes)
    assert len(passes) == 3 * len(workload.sizes)
    assert all(row["e"] > 0 for row in rows.values())


@pytest.mark.parametrize("name", ["exact-small", "exact-large", "scan"])
def test_benchmark_checks_pass_on_one_tiny_round(bench_workloads, tmp_path, name):
    # the benchmark checks every output (two outcome tables per exact
    # operation, bounds above the exact tails, unit mass); a library change
    # that breaks those checks fails here before any benchmark run
    workload = bench_workloads.make(name, tiny=True)
    workload.setup(seed=1, workdir=str(tmp_path))
    ops = workload.round(0)
    assert ops
    for op in ops:
        assert workload.check(op, workload.run(op)) == []
