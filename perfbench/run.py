"""Benchmark of the bcontact CLI.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 27 --trace 0

Runs from the root of a source checkout of the repository, without
installing it: every command is a fresh ``python -m bcontact`` process with
``src`` on its path, issued one at a time by a single-threaded client.  A
run does a fixed amount of work, sized from ``--seconds``.

With ``--trace 0`` the last line of stdout is a JSON result with the
end-to-end metrics, scaled to a reference host speed gauged by probes that
do not run bcontact; with ``--trace 1`` it carries the per-layer metrics of
a separate traced run.  The line before it records the environment and
the details behind the numbers, the unscaled ones among them.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

# A run must end within 180 s; commands still running at this point are
# killed and counted as timeouts.
DEADLINE_S = 165.0
# A run probes the host before every unit and after the last, at least
# this many times: a fresh import of networkx and numpy, which gauges the
# host's speed and runs no bcontact code, then a fresh ``import bcontact``.
MIN_PROBES = 5
SPEED_PROBE = ("-c", "import networkx, numpy")
# Mean wall seconds of SPEED_PROBE on the machine the benchmark was defined
# on (2-vCPU Intel Xeon VM, Python 3.11.7); timings are scaled to it.
REFERENCE_PROBE_S = 0.3
IMPORT_PROBES = 3
TRACEBACK = "Traceback (most recent call last)"
# The failure kind of an exit that a command names as the program's known
# defect (today: tight-count answers past the 4,300-digit int-to-str limit).
KNOWN_DEFECT = "int-to-str limit"


@dataclass
class Outcome:
    seconds: float
    items: int
    # "timeout", "traceback", "exit code", "wrong answer", "no trace summary"
    # or KNOWN_DEFECT
    failure: str | None = None
    detail: str = ""


class Runner:
    """Starts bcontact processes and checks what they return."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SOURCE), os.environ.get("PYTHONPATH")) if p
        )
        self.traced = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def python(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run ``python <args>``; returns wall seconds and the finished process."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True,
            timeout=max(1.0, self.remaining()),
        )
        return time.perf_counter() - t0, proc

    def speed_probe(self) -> float:
        """Wall seconds of one SPEED_PROBE process."""
        seconds, proc = self.python(list(SPEED_PROBE))
        if proc.returncode != 0:
            sys.exit(f"perfbench: speed probe failed: {proc.stderr.decode()[-500:]}")
        return seconds

    def command(self, command: workloads.Command, traced: bool = False) -> tuple[Outcome, dict | None]:
        """Run one CLI command, untraced or under the span tracer."""
        summary_path = self.workdir / f"spans{self.traced}.json"
        if traced:
            self.traced += 1
            args = [str(HERE / "spans.py"), str(summary_path), "--", *command.argv]
        else:
            args = ["-m", spans.PACKAGE, *command.argv]
        t0 = time.perf_counter()
        try:
            seconds, proc = self.python(args)
        except subprocess.TimeoutExpired:
            return Outcome(time.perf_counter() - t0, 0, "timeout"), None
        summary = None
        if traced and summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            summary_path.unlink()
        return judge(command, seconds, proc.returncode, proc.stdout, proc.stderr), summary


def judge(command: workloads.Command, seconds: float, returncode: int,
          stdout: bytes, stderr_bytes: bytes) -> Outcome:
    """The outcome of one finished command."""
    stderr = stderr_bytes.decode("utf-8", errors="replace")
    if TRACEBACK in stderr:
        return Outcome(seconds, 0, "traceback", stderr.strip().splitlines()[-1])
    if returncode != command.expected_exit:
        detail = f"exit {returncode}: {stderr.strip()[:200]}"
        kind = KNOWN_DEFECT if command.known_defect(returncode, stderr) else "exit code"
        return Outcome(seconds, 0, kind, detail)
    reason, items = command.check(stdout, stderr)
    if reason is not None:
        return Outcome(seconds, 0, "wrong answer", reason[:300])
    return Outcome(seconds, items)


def verdict(outcomes: list[Outcome]) -> tuple[bool, dict[str, int]]:
    """Whether the run is correct, and its failures by kind.  Every failure
    but the program's known defect makes the run incorrect."""
    failures: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.failure:
            failures[outcome.failure] = failures.get(outcome.failure, 0) + 1
    return set(failures) <= {KNOWN_DEFECT}, failures


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, by nearest rank.  With ten samples or fewer none exists, and
    the maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    rank = n - 10
    return 100.0 * rank / n, ordered[rank - 1]


def environment(seed: int) -> dict:
    versions = {}
    for package in ("networkx", "numpy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository of
    its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def check_program(runner: Runner) -> None:
    """Exit without a result unless ``import bcontact`` works from ``src``."""
    if not (SOURCE / spans.PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no {spans.PACKAGE} package under {SOURCE}")
    _, proc = runner.python(["-c", "import bcontact; print(bcontact.__file__)"])
    where = proc.stdout.decode().strip()
    if proc.returncode != 0 or not Path(where).resolve().is_relative_to(SOURCE):
        sys.exit(f"perfbench: import bcontact failed or came from elsewhere: "
                 f"{proc.stderr.decode()[-500:]}{where}")


def end_to_end(runner: Runner, units) -> tuple[dict, list[Outcome], dict]:
    """Run the units in order, probing the host before each and after the
    last.  Timings are scaled by the reference probe time over the run's
    mean one, so a host that runs Python slower for a while (on a shared
    machine it swings by up to 1.75x) moves them less."""
    probes, setup, outcomes = [], [], []

    def probe() -> None:
        probes.append(runner.speed_probe())
        setup.append(runner.python(["-c", "import bcontact"])[0])

    for _ in range(MIN_PROBES - len(units) - 1):
        probe()
    for unit in units:
        probe()
        outcomes.extend(runner.command(c)[0] for c in unit)
    probe()
    latencies = [o.seconds for o in outcomes]
    items = sum(o.items for o in outcomes)
    pct, tail = tail_percentile(latencies)
    unscaled = {
        "setup_s": statistics.median(setup),
        "items_per_s": items / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
    }
    scale = REFERENCE_PROBE_S / statistics.mean(probes)
    metrics = {
        "setup_s": (unscaled["setup_s"] * scale, "s"),
        "items_per_s": (unscaled["items_per_s"] / scale, "1/s"),
        "latency_p50_ms": (unscaled["latency_p50_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    details = {
        "unscaled": unscaled,
        "scale": scale,
        "speed_probe_samples_s": probes,
        "setup_samples_s": setup,
        "latency_samples": len(latencies),
        "latency_tail_ms": tail * 1000 * scale,
        "latency_tail_percentile": round(pct, 2),
        "items": items,
    }
    return metrics, outcomes, details


def import_probe(runner: Runner) -> dict:
    """Modules that ``import bcontact`` loads, and the cumulative import
    time of networkx and numpy from ``-X importtime``."""
    code = ("import sys; before = set(sys.modules); import bcontact; "
            "print(len(set(sys.modules) - before))")
    _, proc = runner.python(["-X", "importtime", "-c", code])
    if proc.returncode != 0:
        return {"error": 1}
    cumulative = {}
    for line in proc.stderr.decode().splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3:
            name = fields[2].strip()
            if name in ("networkx", "numpy") and name not in cumulative:
                cumulative[name] = int(fields[1]) / 1e6
    return {
        "modules": int(proc.stdout.decode().split()[-1]),
        "networkx_s": cumulative.get("networkx", 0.0),
        "numpy_s": cumulative.get("numpy", 0.0),
        "error": 0,
    }


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the traced commands' summaries; functions are keyed by
    (layer, function, caller) from their "layer.function@caller" names."""
    merged = {"functions": {}, "tight_count_args": set(), "classes_emitted": 0,
              "render_bytes": 0, "spans": 0, "absent": set()}
    for summary in summaries:
        for name, stats in summary["functions"].items():
            qualified, _, caller = name.partition("@")
            layer, _, function = qualified.partition(".")
            into = merged["functions"].setdefault(
                (layer, function, caller), {"calls": 0, "self_s": 0.0, "errors": 0})
            for key in into:
                into[key] += stats[key]
        merged["tight_count_args"].update(summary["tight_count_args"])
        merged["absent"].update(summary["absent"])
        for key in ("classes_emitted", "render_bytes", "spans"):
            merged[key] += summary[key]
    return merged


def layer_metrics(merged: dict, passes: int, items: int, probes: list[dict],
                  overhead: float) -> dict:
    """The per-layer metrics of one traced pass (totals over passes / passes)."""

    def total(key: str, layer: str, function: str | None = None, caller: str | None = None,
              parse: bool | None = None) -> float:
        out = 0
        for (name_layer, name_function, made_by), stats in merged["functions"].items():
            if (name_layer == layer
                    and function in (None, name_function)
                    and caller in (None, made_by)
                    and (parse is None or spans.is_parse(name_function) == parse)):
                out += stats[key]
        return out / passes

    def per_item(calls: float) -> float:
        return calls / (items / passes) if items else 0.0

    ok_probes = [p for p in probes if not p["error"]]
    metrics = {
        "import.modules_loaded": (statistics.median(p["modules"] for p in ok_probes) if ok_probes else 0, "count"),
        "import.networkx_s": (statistics.median(p["networkx_s"] for p in ok_probes) if ok_probes else 0.0, "s"),
        "import.numpy_s": (statistics.median(p["numpy_s"] for p in ok_probes) if ok_probes else 0.0, "s"),
        "import.errors": (len(probes) - len(ok_probes), "count"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (total("self_s", layer), "s")
        metrics[f"{layer}.errors"] = (total("errors", layer), "count")
    classes = merged["classes_emitted"] / passes
    metrics["enumeration.classes_emitted"] = (classes, "count")
    dedup_codes = total("calls", "region_graph", "canonical_code", caller="enumeration")
    metrics["enumeration.canonical_code_per_class"] = (
        dedup_codes / classes if classes else 0.0, "calls/class")
    for function in ("validate", "canonical_code"):
        calls = total("calls", "region_graph", function)
        metrics[f"region_graph.{function}.calls"] = (calls, "count")
        metrics[f"region_graph.{function}.self_s"] = (total("self_s", "region_graph", function), "s")
        metrics[f"region_graph.{function}.per_item"] = (per_item(calls), "calls/item")
    metrics["surfaces.check_embeddable.calls"] = (total("calls", "surfaces", "check_embeddable"), "count")
    metrics["surfaces.check_embeddable.self_s"] = (total("self_s", "surfaces", "check_embeddable"), "s")
    for function in ("is_admissible", "is_tight_candidate"):
        metrics[f"admissibility.{function}.calls"] = (total("calls", "admissibility", function), "count")
    metrics["counting.tight_count.calls"] = (total("calls", "counting", "tight_count_solid_torus"), "count")
    metrics["counting.tight_count.distinct_args"] = (len(merged["tight_count_args"]), "count")
    for function in ("classify", "leaf_census"):
        metrics[f"classify.{function}.calls"] = (total("calls", "classify", function), "count")
    metrics["formats.render.self_s"] = (total("self_s", "formats", parse=False), "s")
    metrics["formats.render.bytes"] = (merged["render_bytes"] / passes, "bytes")
    metrics["formats.parse.calls"] = (total("calls", "formats", parse=True), "count")
    metrics["formats.parse.self_s"] = (total("self_s", "formats", parse=True), "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def traced(runner: Runner, one_pass: list[workloads.Command],
           passes: int) -> tuple[dict, list[Outcome], dict]:
    """``passes`` passes that run each command once untraced and once
    traced; a pass counts only if every traced command wrote a summary."""
    probes = [import_probe(runner) for _ in range(IMPORT_PROBES)]
    outcomes: list[Outcome] = []
    summaries: list[dict] = []
    walls = {"untraced": 0.0, "traced": 0.0}
    done = done_items = 0
    for _ in range(passes):
        pass_summaries, pass_walls, items = [], {"untraced": 0.0, "traced": 0.0}, 0
        for command in one_pass:
            plain, _ = runner.command(command)
            span, summary = runner.command(command, traced=True)
            if summary is None and span.failure is None:
                span.failure = "no trace summary"
            pass_walls["untraced"] += plain.seconds
            pass_walls["traced"] += span.seconds
            items += span.items
            outcomes.extend((plain, span))
            pass_summaries.append(summary)
        if None not in pass_summaries:
            summaries.extend(pass_summaries)
            for key in walls:
                walls[key] += pass_walls[key]
            done += 1
            done_items += items
    if not done:
        sys.exit("perfbench: no traced pass wrote a summary for every command")
    merged = merge_summaries(summaries)
    overhead = walls["traced"] / walls["untraced"]
    metrics = layer_metrics(merged, done, done_items, probes, overhead)
    details = {
        "passes": done,
        "incomplete_passes": passes - done,
        "traced_wall_s": walls["traced"] / done,
        "untraced_wall_s": walls["untraced"] / done,
        "traced_commands": len(summaries),
        "spans": merged["spans"],
        "absent": sorted(merged["absent"]),
        "calls_by_binding": {
            f"{layer}.{function}@{caller}": stats["calls"]
            for (layer, function, caller), stats in sorted(merged["functions"].items())
            if stats["calls"]
        },
    }
    return metrics, outcomes, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Counts above 4,300 digits must be checkable if the program prints them.
    sys.set_int_max_str_digits(0)

    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, started)
        check_program(runner)
        if args.trace:
            one_pass = workloads.traced_pass(args.workload, args.seed, workdir)
            passes = workloads.pass_count(args.workload, args.seconds)
            metrics, outcomes, details = traced(runner, one_pass, passes)
        else:
            count = workloads.unit_count(args.workload, args.seconds)
            units = workloads.units(args.workload, args.seed, workdir, count)
            metrics, outcomes, details = end_to_end(runner, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    correct, failures = verdict(outcomes)
    failed = sum(failures.values())
    details.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "environment": environment(args.seed),
        "failed_ratio": failed / len(outcomes),
        "failures": failures,
        "failure_examples": sorted({o.detail for o in outcomes if o.failure})[:5],
    })
    print(json.dumps({"details": details}))
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
