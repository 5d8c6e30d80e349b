"""Span tracer for the bcontact package, installed from outside it.

Every public function of the package's layer modules is wrapped at every
module binding of it, so a call is counted under the module that makes it:
``canonical_code`` imported into ``enumeration`` and called there counts as
``region_graph.canonical_code@enumeration``.  Spans (name, start, end,
parent) are kept in flat arrays in memory; self times are computed from
them when the process ends.

Run as a script, it executes the bcontact CLI exactly as ``python -m
bcontact`` does, with the wrappers installed, and writes a JSON summary of
the spans to a file:

    python perfbench/spans.py SUMMARY.json -- enum-trees --n 3
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import runpy
import sys
import time
from array import array

PACKAGE = "bcontact"

# The package's modules, one layer each.  ``oracle`` is the test suite's
# independent referee, not part of the runtime path, so it is left out.
LAYERS = (
    "cli",
    "enumeration",
    "region_graph",
    "surfaces",
    "admissibility",
    "counting",
    "classify",
    "formats",
)

# Functions the per-layer metrics name.  One that a refactor removed is
# reported as absent; its metrics read 0.
NAMED = {
    "cli": ("main", "run_cli"),
    "enumeration": ("enum_equicolored_trees", "enum_torus_classes"),
    "region_graph": ("validate", "canonical_code"),
    "surfaces": ("check_embeddable",),
    "admissibility": ("is_admissible", "is_tight_candidate"),
    "counting": ("tight_count_solid_torus",),
    "classify": ("classify", "leaf_census"),
    "formats": ("parse_dividing_set", "render_table_csv"),
}


def is_parse(function: str) -> bool:
    """Whether a ``formats`` function is on the read side (else it renders)."""
    return function.startswith("parse_")


def self_times(parents, starts, ends) -> array:
    """Each span's duration minus the time its direct children cover.

    A child lies inside its parent's interval, and in single-threaded code
    the children of one span do not overlap, so the covered time is the
    sum of the children's durations.  ``parents[i]`` is the index of span
    i's parent, or -1 for a root span.
    """
    out = array("d", (end - start for start, end in zip(starts, ends)))
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


class SpanLog:
    """Spans of one process in flat arrays, indexed by span number."""

    def __init__(self) -> None:
        self.keys: list[tuple[str, str, str]] = []  # (layer, function, caller)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[int] = []
        self.tight_count_args: set[str] = set()
        self.classes_emitted = 0
        self.render_bytes = 0
        self._open = [-1]

    def wrap(self, fn, key: tuple[str, str, str]):
        """A stand-in for ``fn`` that records one span per call."""
        name_id = len(self.keys)
        self.keys.append(key)
        self.errors.append(0)
        observe = _observer(key)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans, errors, clock = self._open, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name_id] += 1
                raise
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        """Calls, self time and escaped exceptions per wrapped binding."""
        selfs = self_times(self.parent, self.start, self.end)
        calls = [0] * len(self.keys)
        self_s = [0.0] * len(self.keys)
        for idx, name_id in enumerate(self.name):
            calls[name_id] += 1
            self_s[name_id] += selfs[idx]
        functions = {}
        for name_id, (layer, function, caller) in enumerate(self.keys):
            functions[f"{layer}.{function}@{caller}"] = {
                "calls": calls[name_id],
                "self_s": self_s[name_id],
                "errors": self.errors[name_id],
            }
        return {
            "spans": len(self.name),
            "functions": functions,
            "tight_count_args": sorted(self.tight_count_args),
            "classes_emitted": self.classes_emitted,
            "render_bytes": self.render_bytes,
        }


def _observe_tight_count(log, idx, args, kwargs, result) -> None:
    log.tight_count_args.add(repr((args, sorted(kwargs.items()))))


def _observe_enumeration(log, idx, args, kwargs, result) -> None:
    log.classes_emitted += len(result)


def _observe_render(log, idx, args, kwargs, result) -> None:
    # Count only the outermost render call; export_dot, for one, embeds
    # what serialize_class_text returned to it.
    parent = log.parent[idx]
    if parent >= 0:
        layer, function, _ = log.keys[log.name[parent]]
        if layer == "formats" and not is_parse(function):
            return
    if isinstance(result, str):
        log.render_bytes += len(result.encode())


def _observer(key: tuple[str, str, str]):
    layer, function, _ = key
    if layer == "counting" and function == "tight_count_solid_torus":
        return _observe_tight_count
    if layer == "enumeration" and function.startswith("enum_"):
        return _observe_enumeration
    if layer == "formats" and not is_parse(function):
        return _observe_render
    return None


def public_functions(module) -> dict[str, object]:
    """Functions a module defines itself under names without a leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(log: SpanLog) -> list[str]:
    """Wrap every layer's public functions at every binding in the loaded
    bcontact modules; return the ``NAMED`` functions that do not exist.
    """
    layer_of = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for fn in public_functions(module).values():
            layer_of[fn] = layer
    modules = [
        (name, module)
        for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    for module_name, module in modules:
        caller = module_name.rpartition(".")[2]
        for binding, obj in list(vars(module).items()):
            layer = layer_of.get(obj) if inspect.isfunction(obj) else None
            if layer is not None:
                setattr(module, binding, log.wrap(obj, (layer, obj.__name__, caller)))
    present = {(layer, fn.__name__) for fn, layer in layer_of.items()}
    return [
        f"{layer}.{function}"
        for layer, functions in NAMED.items()
        for function in functions
        if (layer, function) not in present
    ]


def main(argv: list[str]) -> None:
    if len(argv) < 3 or argv[2] != "--":
        sys.exit("usage: spans.py SUMMARY.json -- <bcontact arguments>")
    summary_path, cli_args = argv[1], argv[3:]
    log = SpanLog()
    importlib.import_module(PACKAGE)
    absent = install(log)
    sys.argv = [PACKAGE, *cli_args]
    try:
        runpy.run_module(PACKAGE, run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        summary = log.summary()
        summary["absent"] = absent
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    main(sys.argv)
