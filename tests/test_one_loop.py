"""Kernel shape contract: the DES calendar has one dispatch loop.

``Environment._loop`` is the only code that pops the event calendar;
``run`` and ``run_process`` both call it, and wall-clock pacing
(``sim/realtime.py``) is a process inside the calendar rather than a
second loop.  A per-event ``step()`` hook invites a subclass to re-implement
dispatch, which is how copies of the loop accrete, so no ``Environment``
(sub)class defines one.  Like ``tests/test_layering.py`` this reads the
source, so a regression fails in CI before anything runs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _called_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def test_sim_pops_the_calendar_at_one_site():
    sites = []
    for path, tree in _trees(SRC / "sim"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) == "_heappop":
                sites.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert len(sites) == 1, sites


def test_no_environment_class_defines_step():
    classes = {}  # class name -> (bases, defined method names, location)
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {
                    b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                    for b in node.bases
                }
                methods = {
                    f.name for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                classes[node.name] = (bases, methods, f"{path.relative_to(SRC)}:{node.lineno}")
    family = {"Environment"}
    grew = True
    while grew:
        grew = False
        for name, (bases, _methods, _where) in classes.items():
            if name not in family and bases & family:
                family.add(name)
                grew = True
    assert "RealtimeEnvironment" in family
    offenders = [
        classes[name][2] for name in sorted(family)
        if name in classes and "step" in classes[name][1]
    ]
    assert offenders == []
