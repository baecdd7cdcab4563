"""Layout of the package: only the command line turns data into JSON text.

Library modules return data (``to_json_dict``, ``to_rows``); ``cli.py`` alone
decides how it is written, so a second JSON renderer fails here. Imports sit
at the top of a module; the one lazy import left is pinned by name. The
2-parallel architecture is named only where its schedule is built and
checked; everything else reads the stream count off the checked schedule.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polarsc"


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def test_only_cli_imports_json():
    importers = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "json" for m in modules):
                importers.add(name)
    assert importers == {"cli.py"}


def test_no_class_defines_to_json():
    found = [
        f"{name}:{cls.name}"
        for name, tree in _trees().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "to_json"
    ]
    assert found == []


def test_function_level_imports():
    # ber_sweep reaches the simulator lazily because archsim imports channel;
    # that import goes once the campaigns share a module
    found = {
        (name, func.name)
        for name, tree in _trees().items()
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert found == {("channel.py", "ber_sweep")}



def test_parallel2_is_read_only_where_the_schedule_is_built():
    readers = set()
    for name, tree in _trees().items():
        owner = {}  # node -> name of the outermost function around it
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        readers |= {
            (name, owner.get(node))
            for node in ast.walk(tree)
            if "PARALLEL2" in (getattr(node, "id", None), getattr(node, "attr", None))
        }
    assert {r for r in readers if r[0] != "schedule.py"} == {
        ("archsim.py", "_build_schedule"), ("archsim.py", "check_schedule")}
