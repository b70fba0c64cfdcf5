"""Checks on the source of the modules that the commands run."""

import ast
from pathlib import Path

import pytest

import turkshead

#: every module of the package but verify, whose oracles no command reaches
COMMAND_MODULES = ("zmod", "seq", "psi", "thk", "mincol", "cli", "config")

#: the command modules in layer order: each imports only earlier ones
LAYER_ORDER = ("config", "zmod", "seq", "psi", "thk", "mincol", "cli")


def calls_of(source: str, name: str) -> list[ast.Call]:
    """Each call name(...) in `source`."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def tuples_of_generators(source: str) -> list[int]:
    """The lines of each call tuple(<generator expression>) in `source`."""
    return [
        node.lineno
        for node in calls_of(source, "tuple")
        if any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]


def test_finds_a_tuple_of_a_generator():
    assert tuples_of_generators("a = tuple([x for x in y])\nb = tuple(x for x in y)\n") == [2]


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_no_tuple_of_a_generator(module):
    # CPython 3.11 builds tuple(<generator>) in a 10-slot tuple and shrinks
    # it, and a freed tuple of under 20 items waits on the free list of its
    # size until a full collection.  On a per-command path that raised a
    # query-mix session's peak RSS by about 2 MB; tuple([...]) is built at
    # its size.
    path = Path(turkshead.__file__).with_name(f"{module}.py")
    assert tuples_of_generators(path.read_text()) == [], path.name


def test_finds_a_call_to_bin():
    # an inlined copy of the ladder reads the bits of its index this way
    source = "k = q // 2\nfor bit in bin(k)[2:]:\n    pass\n"
    assert [node.lineno for node in calls_of(source, "bin")] == [2]


@pytest.mark.parametrize("module", [m for m in COMMAND_MODULES if m != "seq"])
def test_only_seq_climbs_the_ladder(module):
    # seq._ladder is the one ladder body, so the bits of a ladder's index
    # are read in seq alone; a copy of it elsewhere would escape the tests
    # that hold the ladder against the residue stream
    path = Path(turkshead.__file__).with_name(f"{module}.py")
    assert [node.lineno for node in calls_of(path.read_text(), "bin")] == [], path.name


def relative_imports(source: str) -> list[str]:
    """The package modules that the top-level statements of `source` import
    (deferred imports, inside functions, are not counted)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names += [node.module] if node.module else [alias.name for alias in node.names]
    return names


def test_finds_relative_imports():
    source = "import os\nfrom . import seq, zmod\nfrom .psi import psi\n"
    source += "def f():\n    from . import verify\n"
    assert relative_imports(source) == ["seq", "zmod", "psi"]


def test_modules_import_only_earlier_layers():
    breaks = []
    for index, module in enumerate(LAYER_ORDER):
        path = Path(turkshead.__file__).with_name(f"{module}.py")
        earlier = LAYER_ORDER[:index]
        breaks += [(module, name) for name in relative_imports(path.read_text()) if name not in earlier]
    assert breaks == []
