import ast
import pathlib
import sys

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
    # an exact rule runs once: doubling verifies only the Gram witness
    # (gram) and integrate_rect with a tolerance (quad), and no moment
    # tolerance is left to verify an exact rule against
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
