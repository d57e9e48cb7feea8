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
