import json
import os
import subprocess
import sys
import textwrap

import pytest

import spans
from conftest import BENCH, SOURCE


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert list(spans.self_times(parents, starts, ends)) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_of_a_flat_sequence_are_durations():
    assert list(spans.self_times([-1, -1], [0.0, 2.0], [1.5, 2.25])) == [1.5, 0.25]


def test_wrap_records_nesting_errors_and_callers():
    log = spans.SpanLog()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    via_a = log.wrap(leaf, ("region_graph", "leaf", "a"))
    via_b = log.wrap(leaf, ("region_graph", "leaf", "b"))

    def outer_fn():
        return via_a(1) + via_b(2)

    outer = log.wrap(outer_fn, ("classify", "outer", "cli"))
    assert outer() == 3
    with pytest.raises(ValueError):
        via_a(-1)

    assert list(log.parent) == [-1, 0, 0, -1]
    functions = log.summary()["functions"]
    assert functions["region_graph.leaf@a"]["calls"] == 2
    assert functions["region_graph.leaf@a"]["errors"] == 1
    assert functions["region_graph.leaf@b"]["calls"] == 1
    assert functions["classify.outer@cli"]["calls"] == 1
    outer_span = log.end[0] - log.start[0]
    children = sum(log.end[i] - log.start[i] for i in (1, 2))
    assert functions["classify.outer@cli"]["self_s"] == pytest.approx(outer_span - children)


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(SOURCE)]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_install_wraps_every_binding_of_every_public_layer_function():
    out = _run_python("""
        import inspect, json, sys
        import spans
        import bcontact, bcontact.cli
        log = spans.SpanLog()
        absent = spans.install(log)
        unwrapped, callers = [], {}
        for name, module in sorted(sys.modules.items()):
            if name != "bcontact" and not name.startswith("bcontact."):
                continue
            for binding, obj in vars(module).items():
                if not inspect.isfunction(obj):
                    continue
                original = getattr(obj, "__wrapped__", obj)
                layer = original.__module__.rpartition(".")[2]
                if layer not in spans.LAYERS or original.__name__.startswith("_"):
                    continue
                if obj is original:
                    unwrapped.append(f"{name}.{binding}")
                callers.setdefault(original.__name__, []).append(name)
        print(json.dumps({"absent": absent, "unwrapped": unwrapped, "callers": callers}))
    """)
    result = json.loads(out)
    assert result["absent"] == []
    assert result["unwrapped"] == []
    # canonical_code is bound in its own module, the package and four others.
    assert set(result["callers"]["canonical_code"]) >= {
        "bcontact", "bcontact.region_graph", "bcontact.enumeration",
        "bcontact.classify", "bcontact.formats", "bcontact.cli",
    }


def test_missing_function_is_reported_absent_not_fatal():
    out = _run_python("""
        import json
        import spans
        import bcontact.surfaces
        del bcontact.surfaces.check_embeddable
        print(json.dumps(spans.install(spans.SpanLog())))
    """)
    assert json.loads(out) == ["surfaces.check_embeddable"]


def test_traced_cli_output_matches_untraced_and_summary_counts(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    argv = ["table", "--manifold", "s3-t2", "--max-curves", "2", "--max-slope", "3"]
    plain = subprocess.run(
        [sys.executable, "-m", "bcontact", *argv], capture_output=True, env=env, check=True
    )
    summary_path = tmp_path / "summary.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), str(summary_path), "--", *argv],
        capture_output=True, env=env, check=True,
    )
    assert traced.stdout == plain.stdout
    summary = json.loads(summary_path.read_text())
    rows = plain.stdout.decode().count("\n") - 1
    functions = summary["functions"]
    assert functions["classify.classify@classify"]["calls"] == rows
    assert summary["classes_emitted"] == rows
    assert summary["render_bytes"] == len(plain.stdout)
    assert summary["absent"] == []


def test_traced_cli_keeps_exit_code_and_writes_summary(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    gamma = tmp_path / "in.txt"
    gamma.write_text("surface sphere\nv 0 + 0\nv 1 - 0\nv 2 + 0\ne 0 1\ne 1 2\n")
    summary_path = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), str(summary_path), "--",
         "classify", "--gamma", str(gamma)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    functions = json.loads(summary_path.read_text())["functions"]
    assert functions["classify.classify@cli"]["errors"] == 1
    assert functions["formats.parse_dividing_set@cli"]["calls"] == 1
