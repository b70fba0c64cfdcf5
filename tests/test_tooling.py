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


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, "module._name") of each underscore name of another package
    module that `source` reads: an attribute of a module bound by
    `from . import module`, or a name imported by `from .module import _name`."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                reads.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reads += [(node.lineno, f"{node.module}.{a.name}") for a in node.names if a.name.startswith("_")]
    return sorted(reads)


def test_finds_a_private_read():
    source = "from . import thk, zmod as z\nfrom .psi import _descend, psi\n"
    source += "def f(n, r):\n    return thk._reduced_system_params(n, r), z.factor(r), z._rho\n"
    source += "x = thk.Coloring\n"
    assert private_reads(source) == [(2, "psi._descend"), (4, "thk._reduced_system_params"), (4, "zmod._rho")]


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_no_private_reads_across_modules(module):
    # a module's underscore names are its own to change; a command module
    # that reads one of another module's couples the two past their names
    path = Path(turkshead.__file__).with_name(f"{module}.py")
    assert private_reads(path.read_text()) == [], path.name
