import ast
import types
from pathlib import Path

import hamelflow


def test_all_is_a_written_out_list():
    # __all__ is a literal list of strings, not computed from dir()
    tree = ast.parse(Path(hamelflow.__file__).read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]]
    assert isinstance(value, ast.List)
    assert [elt.value for elt in value.elts] == hamelflow.__all__
    assert len(set(hamelflow.__all__)) == len(hamelflow.__all__)


def test_all_names_resolve_and_are_no_modules():
    for name in hamelflow.__all__:
        assert not isinstance(getattr(hamelflow, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hamelflow import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(hamelflow.__all__)
