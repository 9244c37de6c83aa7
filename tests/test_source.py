"""The package source and the README stay in step with the code."""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import synchro
from synchro.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(synchro.__file__).resolve().parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _unread_imports(source: str) -> list[str]:
    """Top-level imported names that the module never reads as a name."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_import_check_sees_names_read_and_unread():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d\nos.sep; d\n")
    assert _unread_imports(source) == ["b"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))  # it re-exports
def test_modules_read_every_name_they_import(path):
    assert _unread_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


def _paper_to_code_rows() -> list[list[str]]:
    """The cells of each body row of the README's "Paper to code" table."""
    section = README.split("## Paper to code\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    # a cell may hold an escaped pipe, as in O(\|C\|³)
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines[2:]]


def _test_names() -> set[str]:
    names = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                names.add(node.name)
    return names


def test_paper_to_code_table_names_resolve():
    rows = _paper_to_code_rows()
    assert len(rows) == 7
    tests = _test_names()
    for paper, library, commands, checked_by in rows:
        for name in re.findall(r"`([^`]+)`", library):
            obj = synchro
            for part in name.split("."):
                obj = getattr(obj, part)
        for command in re.findall(r"`([^`]+)`", commands):
            assert command in _COMMANDS.choices, (paper, command)
        named = re.findall(r"`([^`]+)`", checked_by)
        assert named and set(named) <= tests, (paper, set(named) - tests)


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["q"].cells == ("1+2", "3")


def _callers(tree: ast.Module, callee: str) -> list[str]:
    """For each call of ``callee`` by name in ``tree``, the innermost function around it."""
    callers = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                callers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return callers


def test_refinement_runs_one_sweep_loop():
    # every sweep in the package comes from the one loop ``_sweeps``; the
    # lattice walk's stops live beside their proofs, not in cir.py
    callers = Counter(
        (path.name, function)
        for path in PACKAGE.glob("*.py")
        for function in _callers(ast.parse(path.read_text(encoding="utf-8")), "_sweep")
    )
    assert callers == {("cir.py", "_sweeps"): 1}
    cir_tree = ast.parse((PACKAGE / "cir.py").read_text(encoding="utf-8"))
    for node in ast.walk(cir_tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            assert params.isdisjoint({"known", "split"}), node.name
