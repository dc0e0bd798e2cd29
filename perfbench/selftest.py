"""Self-test of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is produced with its unit
in both modes, that the result line has the agreed shape, that deliberately
corrupted results are counted as failed, that tracing leaves the package as
it found it, and that the benchmark refuses to run without the sources.
Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run

run.import_package()

import numpy as np  # noqa: E402

import liemetric as lm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
RESULTS = []


def expect(ok: bool, what: str):
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def tiny_units(name: str, label: str) -> list:
    return workloads.WORKLOADS[name](tiny=True).generate(np.random.default_rng(7), WORK / label)


def failures_after_pass(units) -> int:
    return pass_outcome(units)[0]


def pass_outcome(units) -> tuple[int, int]:
    """(items counted as failed, items counted as finished) after one pass."""
    runner = run.Runner(units)
    with contextlib.redirect_stderr(io.StringIO()):
        _, finished = runner.run_pass()
    return runner.failed, finished


def check_metric_names():
    expect([w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS),
           "BENCHMARK.json, run.py and workloads.py name the same workloads")
    expect(all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in SPEC["workloads"]),
           "BENCHMARK.json gives each workload the why recorded beside its definition")
    for name in run.WORKLOAD_NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stderr(io.StringIO()):
                metrics, attempted, failed, summary = run.run_workload(
                    name, 7, 0.05, trace, WORK / f"{name}-{int(trace)}", tiny=True)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {key: unit for key, (_, unit) in metrics.items()}
            finite = all(isinstance(v, float) and math.isfinite(v) for v, _ in metrics.values())
            expect(got == want and finite and attempted >= 1,
                   f"{name} --trace {int(trace)} prints every {section} metric with its unit")
            if not trace:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    run.print_result({}, summary, metrics, attempted, failed)
                last = json.loads(out.getvalue().splitlines()[-1])
                expect(set(last) == {"correct", "attempted", "failed", "metrics"}
                       and last["correct"] == (failed == 0),
                       f"{name} result line has the agreed keys")


def check_corruption_counts():
    units = tiny_units("report_large", "sl")
    expect(failures_after_pass(units) == 0, "report_large at tiny size passes its gate")
    units[0].expect["einstein"] = -0.3
    expect(failures_after_pass(units) == 1, "a wrong expected Einstein constant is counted as failed")

    units = tiny_units("report_large", "bytes")
    failures_after_pass(units)
    units[1].expect["bytes"] = b"{}"
    expect(failures_after_pass(units) == 1, "report JSON that changes between passes is counted as failed")

    units = tiny_units("report_batch", "flags")
    expect(failures_after_pass(units) == 0, "report_batch at tiny size passes its gate")
    generated = units[0].run.__self__.expect
    generated["000.json"] = {**generated["000.json"], "is_solvable": not generated["000.json"]["is_solvable"]}
    expect(failures_after_pass(units) == 1, "a file whose flags differ from the generated ones is counted as failed")

    units = tiny_units("construct_roundtrip", "routes")
    expect(failures_after_pass(units) == 0, "construct_roundtrip at tiny size passes its gate")
    for unit in units:
        unit.expect["route_offset"] = 1e-3
    expect(failures_after_pass(units) == len(units), "a perturbed Ricci route comparison is counted as failed")

    units = tiny_units("construct_roundtrip", "raise")
    units[0].run = lambda: 1 / 0
    expect(pass_outcome(units) == (1, len(units) - 1), "an item that raises is counted as failed, not finished")

    for stage in ("run", "check"):
        units = tiny_units("report_batch", f"raise_{stage}")
        setattr(units[0], stage, lambda *_: 1 / 0)
        expect(pass_outcome(units) == (units[0].items, 0) and units[0].items > 1,
               f"a batch whose {stage} raises counts every file as failed and none as finished")


def check_tracing():
    original = lm.geometry.ricci
    tracer = tracing.Tracer()
    units = tiny_units("construct_roundtrip", "trace")
    with tracer.patched():
        patched = lm.geometry.ricci is not original and lm.ricci is lm.geometry.ricci
        run.Runner(units, tracer).run_pass()
    values = tracer.layer_metrics(1)
    expect(patched and lm.geometry.ricci is original and lm.ricci is original,
           "tracing patches every binding and restores it")
    expect(values["geometry.change_basis.calls"] > 0 and values["geometry.change_basis.peak_mb"] > 0
           and values["classify.decompose_double_extension.self_s"] > 0,
           "traced run records calls, self time and peak memory")


def check_refuses_without_sources():
    bare = WORK / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report_batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits nonzero and prints no result")


def main() -> int:
    try:
        check_metric_names()
        check_corruption_counts()
        check_tracing()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.parent.rmdir()
    print(f"{sum(RESULTS)} of {len(RESULTS)} checks hold")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
