"""Layering contract: imports only point down the stack.

The repo's architecture is a strict layering (ROADMAP / DESIGN):

    errors, sim                                   (0: foundation)
      ← metrics, cache, trace, parallel,
        containers, queueing, keepalive           (1: mechanisms)
      ← core, workloads, loadgen                  (2: control plane)
      ← dispatch, loadbalancer, baselines,
        provisioning                              (3: cluster layer)
      ← experiments, telemetry, cluster_shard,
        cli                                       (4: harness)

A module may import (at module level) only from its own layer or below.
This guard walks every source file's AST and fails on upward imports, so
god-object regressions — the exact failure mode the lifecycle refactor
unwinds — break CI instead of accreting silently.  In-function (deferred)
imports are exempt: they are the documented escape hatch for optional,
late-bound wiring and cannot create import cycles.

Documented exemptions (shared *model* types, not behaviour):

* ``containers`` (layer 1) imports ``core.function``, and ``queueing``
  imports ``core.function`` + ``core.characteristics`` — the
  registration/invocation dataclasses and the characteristics map are the
  vocabulary the mechanism layers are written in.  Only those core
  modules are allowed; any other ``core.*`` import from layer 1 still
  fails, and :func:`test_exemptions_are_minimal` deletes stale entries.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"

LAYERS = {
    # 0: foundation
    "errors": 0,
    "sim": 0,
    # 1: mechanisms
    "metrics": 1,
    "cache": 1,
    "trace": 1,
    "parallel": 1,
    "containers": 1,
    "queueing": 1,
    "keepalive": 1,
    # 2: the worker-centric control plane
    "core": 2,
    "workloads": 2,
    "loadgen": 2,
    # 3: cluster layer
    "dispatch": 3,
    "loadbalancer": 3,
    "baselines": 3,
    "provisioning": 3,
    # 4: harness / observability / entry points
    "experiments": 4,
    "telemetry": 4,
    "tracing": 4,
    "health": 4,
    "cluster_shard": 4,
    "cli": 4,
    "__init__": 4,
    "__main__": 4,
}

# (importing package, imported dotted module) pairs allowed despite
# pointing up the stack: shared model types only.
EXEMPT = {
    ("containers", "core.function"),
    ("queueing", "core.function"),
    ("queueing", "core.characteristics"),
}


def top_package(path: Path) -> str:
    rel = path.relative_to(SRC)
    return rel.parts[0].removesuffix(".py")


def resolve_relative(path: Path, node: ast.ImportFrom) -> str:
    """Resolve a relative ``from .. import x`` to a repro-dotted module."""
    rel = path.relative_to(SRC)
    parts = list(rel.parts[:-1])  # package dirs containing this module
    up = node.level - 1
    base = parts[: len(parts) - up] if up else parts
    mod = node.module or ""
    return ".".join([*base, mod]) if mod else ".".join(base)


def module_level_imports(tree: ast.Module):
    """Yield (node, dotted) for imports outside function bodies."""
    todo = [(tree, False)]
    while todo:
        node, in_func = todo.pop()
        for child in ast.iter_child_nodes(node):
            child_in_func = in_func or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if not child_in_func and isinstance(child, ast.Import):
                for alias in child.names:
                    yield child, alias.name
            elif not child_in_func and isinstance(child, ast.ImportFrom):
                yield child, None  # resolved by the caller
            todo.append((child, child_in_func))


def collect_violations():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        importer = top_package(path)
        importer_layer = LAYERS[importer]
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, dotted in module_level_imports(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    target = resolve_relative(path, node)
                elif node.module and node.module.startswith("repro"):
                    target = node.module.removeprefix("repro").lstrip(".")
                else:
                    continue
            else:
                if not dotted.startswith("repro"):
                    continue
                target = dotted.removeprefix("repro").lstrip(".")
            if not target:
                continue  # "from . import x" inside the same package
            imported = target.split(".")[0]
            if imported not in LAYERS:
                continue
            if LAYERS[imported] > importer_layer and importer != imported:
                if (importer, target) in EXEMPT:
                    continue
                violations.append(
                    f"{path.relative_to(SRC)}:{node.lineno}: "
                    f"layer-{importer_layer} package {importer!r} imports "
                    f"layer-{LAYERS[imported]} module repro.{target}"
                )
    return violations


def test_every_package_has_a_layer():
    found = {
        top_package(p)
        for p in SRC.rglob("*.py")
    }
    unassigned = found - set(LAYERS)
    assert not unassigned, (
        f"new top-level packages need a layer assignment: {sorted(unassigned)}"
    )


def test_imports_respect_layering():
    violations = collect_violations()
    assert not violations, "\n".join(["layering violations:"] + violations)


def all_imports(tree: ast.Module):
    """Yield every import's dotted target, *including* in-function ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node, None


def test_loadbalancer_never_imports_cluster_shard():
    """The LB/dispatch layers must stay runnable without the shard engine.

    Stricter than the generic guard: even deferred (in-function) imports
    are forbidden here — the shard engine imports the cluster, so any
    back-edge, however late-bound, would couple the placement layer to
    the multiprocess harness.
    """
    offenders = []
    for package in ("loadbalancer", "dispatch"):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node, dotted in all_imports(tree):
                if isinstance(node, ast.ImportFrom):
                    if node.level > 0:
                        target = resolve_relative(path, node)
                    elif node.module and node.module.startswith("repro"):
                        target = node.module.removeprefix("repro").lstrip(".")
                    else:
                        continue
                else:
                    if not dotted.startswith("repro"):
                        continue
                    target = dotted.removeprefix("repro").lstrip(".")
                if target.split(".")[0] == "cluster_shard":
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, (
        f"loadbalancer/dispatch must not import cluster_shard: {offenders}"
    )


def test_exemptions_are_minimal():
    """The exemption list must stay exactly the shared-model imports that
    actually exist — stale entries get deleted, new ones argued for."""
    used = set()
    for path in sorted(SRC.rglob("*.py")):
        importer = top_package(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, _ in module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                target = resolve_relative(path, node)
                if (importer, target) in EXEMPT:
                    used.add((importer, target))
    assert used == EXEMPT, f"unused exemptions: {sorted(EXEMPT - used)}"
