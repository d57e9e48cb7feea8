import ast
import dataclasses
import importlib
import pathlib
import sys
import typing

import dirichletlab
from dirichletlab import carleson


def test_public_names_resolve():
    for name in dirichletlab.__all__:
        assert hasattr(dirichletlab, name), name


def test_window_summary_layer_is_gone():
    for name in ("boundedness_index", "BoundednessSummary", "window_report"):
        assert name not in dirichletlab.__all__
        assert not hasattr(dirichletlab, name)
        assert not hasattr(carleson, name)


def _module_trees():
    root = pathlib.Path(dirichletlab.__file__).parent
    for path in sorted(root.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_runtime_dependencies_are_numpy_and_the_stdlib():
    allowed = set(sys.stdlib_module_names) | {"numpy", "dirichletlab"}
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            assert set(tops) <= allowed, (name, node.lineno, tops)


def test_no_linalg_routine_but_norm():
    # one eigen path (spectra.eigh): LAPACK appears only in the tests
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr != "norm":
                assert not (isinstance(node.value, ast.Attribute)
                            and node.value.attr == "linalg"), (name, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # no alias for numpy.linalg, and from it only norm
                module = getattr(node, "module", None) or ""
                names = {alias.name.split(".")[-1] for alias in node.names}
                assert "linalg" not in names, (name, node.lineno)
                if module.endswith("linalg"):
                    assert names == {"norm"}, (name, node.lineno)


def _names(tree):
    """Every name a module defines, imports or references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
            yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_order_doubling_serves_only_the_two_witnesses():
    # an exact rule runs once: doubling (quad) verifies only the Gram
    # witness (gram) and the tests' rectangle rule, integrate_rect with a
    # tolerance (tests/reference_routes.py), and no moment tolerance is
    # left to verify an exact rule against
    users = {name for name, tree in _module_trees()
             if "doubling" in set(_names(tree))}
    assert users == {"quad.py", "gram.py"}
    for name, tree in _module_trees():
        assert "MOMENT_RTOL" not in set(_names(tree)), name


def test_staircase_copies_stay_in_geometry():
    # the product path reads one row per level: only geometry expands the
    # rows into per-copy rectangles, and the window measures and moments
    # read the public row arrays, no private field of the domain
    for name, tree in _module_trees():
        if name != "geometry.py":
            assert "rectangles" not in set(_names(tree)), name
        if name in ("carleson.py", "powers.py"):
            private = {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr.startswith("_")}
            assert not private, (name, private)


def test_quadrature_witness_stays_off_the_product_path():
    # the Gram witness backs acceptance criterion 1 from the tests only
    witness = {"build_gram", "kernel_centered", "_disk_rule", "_assemble"}
    for name, tree in _module_trees():
        if name != "gram.py":
            assert not witness & set(_names(tree)), name


# routes that only the tests use as oracles, by the module that held them
REFERENCE_ROUTES = {
    "quad": ("integrate_rect", "_rect_sides", "_rect_value"),
    "geometry": ("PowerProfile", "cusp_contains", "cusp_area"),
    "spectra": ("singular_values",),
    "powers": ("norms", "power_coeffs", "power_norm_series", "DEGREE_CAP",
               "growth_term_sum"),
}


def test_reference_routes_live_in_the_tests():
    named = {name: set(_names(tree)) for name, tree in _module_trees()}
    for module, routes in REFERENCE_ROUTES.items():
        old = importlib.import_module(f"dirichletlab.{module}")
        for route in routes:
            assert route not in dirichletlab.__all__, route
            assert not hasattr(old, route), (module, route)
            users = [name for name, names in named.items() if route in names]
            assert not users, (route, users)


BENCH_WORKER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/worker.py"


def test_benchmark_worker_bindings_resolve():
    # the benchmark's worker wraps and calls package names that no test
    # imports; read from its source, each must still resolve
    tree = ast.parse(BENCH_WORKER.read_text(), filename=str(BENCH_WORKER))
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "dirichletlab":
            for alias in node.names:
                modules[alias.name] = importlib.import_module(
                    f"dirichletlab.{alias.name}")
        elif (node.module or "").startswith("dirichletlab."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
    assert {"cli", "geometry", "gram", "powers", "seqs"} <= set(modules)
    hooks = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    wrapped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            # cli.run, powers.jensen_lower, geometry.profile_make, the seqs
            # regularizers, on a module or on self.<module>
            base = node.value
            key = base.id if isinstance(base, ast.Name) else getattr(
                base, "attr", None)
            if key in modules:
                assert hasattr(modules[key], node.attr), (key, node.attr)
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "wrap"
                and isinstance(node.args[0], ast.Name)):
            continue
        key, name = node.args[0].id, node.args[1].value
        fn = getattr(modules[key], name, None)
        assert callable(fn), (key, name)
        wrapped.add(name)
        if len(node.args) < 4:
            continue
        # a hook reads attributes of the wrapped call's result, such as
        # eksy_build(...).rectangles and build_gram(...).order
        returns = typing.get_type_hints(fn).get("return")
        fields = ({f.name for f in dataclasses.fields(returns)}
                  if dataclasses.is_dataclass(returns) else set())
        for sub in ast.walk(hooks[node.args[3].id]):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "result"):
                assert (sub.attr in fields
                        or hasattr(returns, sub.attr)), (name, sub.attr)
    assert {"build_gram", "kernel_centered", "eksy_build"} <= wrapped
