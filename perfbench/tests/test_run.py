import random
import subprocess

import pytest

import queries
import run
import workloads


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert run.tail_percentile(samples) == (90.0, 90.0)
    pct, value = run.tail_percentile([float(x) for x in range(1, 51)])
    assert (pct, value) == (80.0, 40.0)
    assert sum(s > value for s in range(1, 51)) == 10


def test_tail_with_ten_samples_or_fewer_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail_percentile([float(x) for x in range(10)]) == (100.0, 9.0)
    pct, value = run.tail_percentile([float(x) for x in range(11)])
    assert value == 0.0 and pct == pytest.approx(100 / 11)


def test_work_per_run_is_fixed_by_seconds():
    assert workloads.unit_count("torus-table", 30) == 10
    assert workloads.unit_count("cli-queries", 0.1) == 1
    assert workloads.unit_count("enumerate", 30) % 2 == 0
    assert workloads.pass_count("cli-queries", 1) == 1


def test_units_alternate_enumerations_and_group_query_rounds(tmp_path):
    enum = workloads.units("enumerate", 1, None, 4)
    assert [u[0].argv[0] for u in enum] == ["enum-trees", "enum-torus"] * 2
    rounds = workloads.units("cli-queries", 7, tmp_path, 3)
    assert len(rounds) == 3
    assert all(sorted(c.argv[0] for c in r) == sorted(queries.COMMANDS) for r in rounds)
    assert len(workloads.traced_pass("enumerate", 1, None)) == 2


class _ProbeRunner:
    """Commands take 1 s and give 4 items; an import of bcontact takes
    0.5 s, and the speed probe twice its reference time."""

    def __init__(self) -> None:
        self.probes = 0

    def speed_probe(self):
        self.probes += 1
        return 2 * run.REFERENCE_PROBE_S

    def python(self, args):
        return 0.5, subprocess.CompletedProcess(args, 0, b"", b"")

    def command(self, command):
        return run.Outcome(1.0, 4), None


def test_end_to_end_probes_around_every_unit_and_scales_to_reference_speed():
    command = workloads.Command(("census",), 0, lambda out, err: (None, 1))
    runner = _ProbeRunner()
    metrics, outcomes, details = run.end_to_end(runner, [[command, command]] * 6)
    assert runner.probes == 7 and len(outcomes) == 12
    assert details["unscaled"]["items_per_s"] == 4.0
    assert details["scale"] == 0.5
    assert metrics["items_per_s"][0] == 8.0
    assert metrics["latency_p50_ms"][0] == 500.0
    assert metrics["setup_s"][0] == 0.25
    runner = _ProbeRunner()
    run.end_to_end(runner, [[command]])
    assert runner.probes == run.MIN_PROBES


def _summary(functions, **extra):
    base = {"functions": functions, "tight_count_args": [], "classes_emitted": 0,
            "render_bytes": 0, "spans": 0, "absent": []}
    base.update(extra)
    return base


def test_layer_metrics_sum_bindings_and_divide_by_passes():
    stats = lambda calls, self_s=0.0, errors=0: {"calls": calls, "self_s": self_s, "errors": errors}
    one = _summary({
        "region_graph.canonical_code@enumeration": stats(6, 0.5),
        "region_graph.canonical_code@classify": stats(2, 0.25),
        "region_graph.validate@surfaces": stats(10, 1.0, 1),
        "enumeration.enum_torus_classes@cli": stats(1, 2.0),
        "formats.parse_dividing_set@cli": stats(1, 0.125),
        "formats.render_table_csv@cli": stats(1, 0.375),
        "counting.tight_count_solid_torus@classify": stats(3),
    }, classes_emitted=4, render_bytes=100, tight_count_args=["a", "b"])
    merged = run.merge_summaries([one, one])
    probes = [{"modules": 400, "networkx_s": 0.2, "numpy_s": 0.1, "error": 0}]
    metrics = {k: v for k, (v, _) in run.layer_metrics(merged, 2, 8, probes, 1.5).items()}
    assert metrics["region_graph.canonical_code.calls"] == 8
    assert metrics["region_graph.canonical_code.per_item"] == 2
    assert metrics["enumeration.canonical_code_per_class"] == 1.5
    assert metrics["region_graph.validate.self_s"] == 1.0
    assert metrics["region_graph.errors"] == 1
    assert metrics["region_graph.self_s"] == 1.75
    assert metrics["formats.parse.self_s"] == 0.125
    assert metrics["formats.render.self_s"] == 0.375
    assert metrics["formats.render.bytes"] == 100
    assert metrics["counting.tight_count.calls"] == 3
    assert metrics["counting.tight_count.distinct_args"] == 2
    assert metrics["classify.classify.calls"] == 0
    assert metrics["import.modules_loaded"] == 400
    assert metrics["trace.overhead_ratio"] == 1.5


def test_table_invariants_count_rows_tight_rows_and_codes():
    text = "canonical_code,tight_count\nA,0\nA,4\nB,0\n"
    assert workloads.table_invariants(text) == (3, 1, 2)


def test_enumeration_check_rejects_wrong_count_and_changed_output():
    check = workloads._enumeration_check(workloads.ENUM_TORUS_SHA256, 2)
    assert check(b"x\ny\n", "")[0] == "stdout differs from the recorded output"
    assert check(b"x\n", "")[0].startswith("1 classes")


def _query(command: str, **fields) -> workloads.Command:
    return workloads._query_command(queries.Query(command, (command,), **fields))


def test_wrong_exit_code_on_check_makes_the_run_incorrect():
    admissible = queries.random_dividing_set(random.Random(5), admissible=True)
    inadmissible = queries.random_dividing_set(random.Random(5), admissible=False)
    rejected = run.judge(_query("check", dividing_set=admissible), 0.1, 1, b"", b"error: no\n")
    accepted = run.judge(_query("census", dividing_set=inadmissible), 0.1, 0, b"2 3 2\n", b"")
    for outcome in (rejected, accepted):
        assert outcome.failure == "exit code"
        assert run.verdict([outcome]) == (False, {"exit code": 1})


def test_traceback_on_enumerate_makes_the_run_incorrect():
    enum_trees = workloads.units("enumerate", 1, None, 2)[0][0]
    stderr = b"Traceback (most recent call last):\n  ...\nMemoryError\n"
    outcome = run.judge(enum_trees, 2.0, 1, b"", stderr)
    assert outcome.failure == "traceback"
    assert run.verdict([run.Outcome(1.0, 5), outcome]) == (False, {"traceback": 1})


def test_empty_enumeration_output_makes_the_run_incorrect():
    enum_trees = workloads.units("enumerate", 1, None, 2)[0][0]
    outcome = run.judge(enum_trees, 2.0, 0, b"", b"")
    assert outcome.failure == "wrong answer"
    assert not run.verdict([outcome])[0]


def test_digit_limit_refusal_is_failed_but_not_incorrect():
    stderr = (queries.DIGIT_LIMIT_ERROR + "; use sys.set_int_max_str_digits()\n").encode()
    past_limit = _query("tight-count", params=(9_000, 3, 2))
    outcome = run.judge(past_limit, 0.4, 1, b"", stderr)
    assert outcome.failure == run.KNOWN_DEFECT
    assert run.verdict([run.Outcome(0.4, 1), outcome]) == (True, {run.KNOWN_DEFECT: 1})


def test_digit_limit_error_below_the_limit_makes_the_run_incorrect():
    stderr = (queries.DIGIT_LIMIT_ERROR + "\n").encode()
    small = run.judge(_query("tight-count", params=(100, 3, 2)), 0.4, 1, b"", stderr)
    assert small.failure == "exit code"
    other_error = run.judge(_query("tight-count", params=(9_000, 3, 2)), 0.4, 1, b"", b"error: x\n")
    assert other_error.failure == "exit code"
    assert not run.verdict([small])[0] and not run.verdict([other_error])[0]


class _FakeRunner:
    """Commands that succeed at once; the first ``missing`` traced
    commands write no span summary."""

    def __init__(self, missing: int) -> None:
        self.missing = missing

    def python(self, args):
        return 0.01, subprocess.CompletedProcess(args, 0, b"5\n", b"")

    def command(self, command, traced=False):
        if not traced:
            return run.Outcome(0.01, 1), None
        if self.missing:
            self.missing -= 1
            return run.Outcome(0.02, 1), None
        return run.Outcome(0.02, 1), _summary({"cli.main@cli": {"calls": 1, "self_s": 0.01, "errors": 0}})


def test_traced_pass_without_summary_is_left_out_and_fails_the_run():
    units = [[workloads.Command(("census",), 0, lambda out, err: (None, 1))]]
    metrics, outcomes, details = run.traced(_FakeRunner(missing=1), units[0], 3)
    assert details["incomplete_passes"] == 1
    assert details["passes"] == 2
    assert metrics["cli.self_s"][0] == pytest.approx(0.01)
    assert run.verdict(outcomes) == (False, {"no trace summary": 1})


def test_traced_run_with_no_complete_pass_gives_no_result():
    units = [[workloads.Command(("census",), 0, lambda out, err: (None, 1))]]
    with pytest.raises(SystemExit):
        run.traced(_FakeRunner(missing=10**9), units[0], 2)
