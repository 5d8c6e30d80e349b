"""The package's import graph has no cycle.

The graph is read off the source with ``ast``: every relative import, at
module level or inside a function, is an edge, since a lazy import runs
as soon as its function does.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bcontact"


def import_graph():
    """Each module of the package and the set of its modules it imports."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        imported = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import name
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
    return graph


def find_cycle(graph):
    """A cycle of ``graph`` as its modules in import order, the first one
    again at the end, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for other in sorted(graph.get(module, ())):
            cycle = visit(other)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_the_package_imports_form_no_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, " -> ".join(cycle)


def test_the_graph_holds_lazy_imports():
    # The CLI imports every layer inside its handlers, none at module level.
    graph = import_graph()
    assert {"formats", "classify", "enumeration", "listings"} <= graph["cli"]
    assert graph["__main__"] == {"cli"}
    assert graph["region_graph"] == {"codes"}


def test_a_cycle_is_found_and_named():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a", "d"}, "d": set()}) == [
        "a", "b", "c", "a"
    ]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
