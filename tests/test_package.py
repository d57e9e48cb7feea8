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
    # an exact rule runs once: the Gram witness compares order m with 2m
    # itself (gram.build_gram), the escalating doubling verifies only the
    # tests' rectangle rule and cusp oracles (tests/reference_routes.py),
    # and no moment tolerance is left to verify an exact rule against
    users = {name for name, tree in _module_trees()
             if "doubling" in set(_names(tree))}
    assert users == set()
    for name, tree in _module_trees():
        assert "MOMENT_RTOL" not in set(_names(tree)), name


def test_the_noise_floor_rule_is_written_once():
    # a Ritz value meets the noise floor in MomentMatrix.resolved only:
    # floor_crossings and cusp-galerkin ask it, so a proven bound in place
    # of the floor would land in one method
    for name, tree in _module_trees():
        if name != "galerkin.py":
            named = {"noise_floor", "TRIANGLE_RTOL"} & set(_names(tree))
            assert not named, (name, named)
            continue
        reads = {fn.name for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute)
                 and node.attr == "noise_floor"}
        assert reads == {"resolved"}, reads


ROW_FIELDS = {"x1", "x2", "lo", "hi", "count", "first", "pipe"}


def test_staircase_copies_stay_in_geometry():
    # the product path reads one row per level: only geometry expands the
    # rows into per-copy rectangles or reads the row fields (the window
    # masses and moments ask the domain, RectilinearDomain.pullback_mass),
    # and no other module reads a private field of the domain
    for name, tree in _module_trees():
        if name != "geometry.py":
            assert "rectangles" not in set(_names(tree)), name
            read = {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)} & ROW_FIELDS
            assert not read, (name, read)
        if name in ("carleson.py", "powers.py"):
            private = {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr.startswith("_")}
            assert not private, (name, private)


def _delta_powers(tree):
    """Line numbers where delta (a name or an attribute) is raised to a
    power, by ** or by a pow/power call, outside geometry.profile_make."""
    skip = {id(sub) for node in ast.walk(tree)
            if getattr(node, "name", None) == "profile_make"
            for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
        elif (isinstance(node, ast.Call) and node.args and getattr(
                node.func, "attr", getattr(node.func, "id", None))
                in ("pow", "power", "float_power")):
            base = node.args[0]
        else:
            continue
        if "delta" in set(_names(base)):
            yield node.lineno


def test_cusp_scales_are_formed_in_the_profile_only():
    # delta^j and eps_j delta^j are formed once, by profile_make; the disk
    # family, the nu bounds and the window anchors read its breakpoint
    # table, so no second route can round them differently
    for name, tree in _module_trees():
        assert not list(_delta_powers(tree)), name
    geometry = dict(_module_trees())["geometry.py"]
    make = next(node for node in ast.walk(geometry)
                if getattr(node, "name", None) == "profile_make")
    assert any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and "delta" in set(_names(node.left))
               for node in ast.walk(make))


def _is_slice(node):
    return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)


def _breakpoint_names(tree):
    """(names, slices): knots, thetas and every name the module binds to an
    expression that reads one of them, such as t in t, th = p.knots,
    p.thetas; and the names among them bound to a slice, such as t0 in
    t0 = t[:-1]."""
    names, slices, grew = {"knots", "thetas"}, set(), True
    while grew:
        grew = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            pairs = [(target, node.value) for target in node.targets]
            pairs += [pair for target, value in pairs
                      if isinstance(target, ast.Tuple)
                      and isinstance(value, ast.Tuple)
                      for pair in zip(target.elts, value.elts)]
            for target, value in pairs:
                if (isinstance(target, ast.Name) and target.id not in names
                        and names & set(_names(value))):
                    names.add(target.id)
                    grew = True
                    if _is_slice(value):
                        slices.add(target.id)
    return names, slices


def _breakpoint_differences(tree):
    """Line numbers of an np.diff of the breakpoint table, or of a
    difference of two of its slices, such as t[1:] - t[:-1] or t1 - t0
    with t0 = t[:-1] and t1 = t[1:]."""
    names, slices = _breakpoint_names(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and node.args and getattr(
                node.func, "attr", getattr(node.func, "id", None)) == "diff"):
            if names & set(_names(node.args[0])):
                yield node.lineno
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            sides = (node.left, node.right)
            if all((_is_slice(side) and names & set(_names(side.value)))
                   or getattr(side, "id", None) in slices for side in sides):
                yield node.lineno


def test_profile_pieces_are_formed_in_geometry_only():
    # the steps, cross products, trapezoids and knot radii of the profile
    # are its piece table (geometry.piece_table), formed once per profile;
    # the edge points, the moments, the windows and the Galerkin table read
    # it, so no second route can round them differently
    for name, tree in _module_trees():
        if name != "geometry.py":
            assert not list(_breakpoint_differences(tree)), name
    geometry = dict(_module_trees())["geometry.py"]
    assert list(_breakpoint_differences(geometry))


def test_quadrature_witness_stays_off_the_product_path():
    # the Gram witness backs acceptance criterion 1 from the tests only
    witness = {"build_gram", "kernel_centered", "_disk_rule", "_assemble"}
    for name, tree in _module_trees():
        if name != "gram.py":
            assert not witness & set(_names(tree)), name


# routes that only the tests use as oracles, by the module that held them
REFERENCE_ROUTES = {
    "quad": ("integrate_rect", "_rect_sides", "_rect_value", "doubling",
             "Doubling"),
    "errors": ("AccuracyWarning",),
    "geometry": ("PowerProfile", "cusp_contains", "cusp_area"),
    "spectra": ("singular_values",),
    "galerkin": ("one_shot_table",),
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


# general forms replaced by the one form their callers use, by the module
# that held them: the Neumann floor is one number of the Gram certificate,
# the Gauss rule one cached table on [0, 1] (quad._gl), the entry
# inequalities come back as check lines, as the certificate's do, a
# Jacobi step is the closure that spectra._plan returns, and the scan of
# nested truncations is the one moment matrix (galerkin.moment_matrix)
REPLACED_FORMS = {
    "gram": ("TecReport",),
    "spectra": ("NeumannBounds", "neumann_lower", "_Plan", "_step"),
    "quad": ("QuadratureRule", "gauss_nodes", "_gauss_rule"),
    "galerkin": ("CompressionScan", "compression_scan"),
}


def test_replaced_general_forms_are_gone():
    named = {name: set(_names(tree)) for name, tree in _module_trees()}
    for module, forms in REPLACED_FORMS.items():
        old = importlib.import_module(f"dirichletlab.{module}")
        for form in forms:
            assert form not in dirichletlab.__all__, form
            assert not hasattr(old, form), (module, form)
            users = [name for name, names in named.items() if form in names]
            assert not users, (form, users)


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
