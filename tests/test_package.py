"""The package namespace: every public name resolves lazily to the object in
its home module, and the README's library example runs as written."""

import re
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import sl2forms

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves_to_its_home_modules_object():
    for name in sl2forms.__all__:
        home = import_module(f"sl2forms.{sl2forms._HOME[name]}")
        assert getattr(sl2forms, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sl2forms import *", namespace)
    for name in sl2forms.__all__:
        assert namespace[name] is getattr(sl2forms, name)


def test_dir_lists_every_public_name():
    assert set(sl2forms.__all__) <= set(dir(sl2forms))
    assert "__version__" in dir(sl2forms)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sl2forms.no_such_name
    assert not hasattr(sl2forms, "no_such_name")


def test_readme_library_example_runs_as_written():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["decompose"](namespace["t"]).summands == ((1, 1), (3, 1), (5, 1))
    t, b, mat_vec = namespace["t"], namespace["b"], namespace["mat_vec"]
    assert mat_vec(t.actY, b.terms) == ()
    assert mat_vec(t.actX, b.terms) == ((2, 4), (5, -1), (8, -2))
    assert namespace["is_star_form"](namespace["t"], namespace["form"]).ok
    rows = [(row.k, row.value) for row in namespace["report"].rows]
    assert rows == [(0, Fraction(1440)), (1, Fraction(-60)), (2, Fraction(6))]
    assert namespace["report"].alternating
