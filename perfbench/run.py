"""Benchmark of the liemetric package, one workload per process.

    python3 perfbench/run.py --workload report_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and inputs and outputs go to a scratch
directory under ``.perfbench_work/`` that is removed at exit.

A run generates the workload's inputs from the seed (three times, keeping
the median time), runs a warm-up pass, then repeats whole passes (at least three)
for about ``--seconds`` of timed work.  Correctness checks run between the
timed calls.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it give run metadata and a readable summary.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 3  # even a short run averages several passes
WORKLOAD_NAMES = ("report_large", "report_batch", "construct_roundtrip")


def import_package():
    """Import liemetric from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "liemetric" / "__init__.py").is_file():
        raise SystemExit(f"error: no liemetric sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import liemetric

    if Path(liemetric.__file__).resolve().parent != (src / "liemetric").resolve():
        raise SystemExit(f"error: imported liemetric from {liemetric.__file__}, not from {src}")
    return liemetric


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if one is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


class Runner:
    """Runs passes over a workload's units, timing only the calls into the package."""

    def __init__(self, units, tracer=None):
        self.units = units
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self._reported = set()

    def run_pass(self) -> tuple[float, int]:
        """One pass over every unit: (seconds of timed calls, items the program got through)."""
        timed = 0.0
        finished = 0
        for unit in self.units:
            out, error = None, None
            with self.tracer.item("pass") if self.tracer else nullcontext():
                start = time.perf_counter()
                try:
                    out = unit.run()
                except Exception:  # an item that raises is a failed item; keep measuring
                    error = traceback.format_exc()
                timed += time.perf_counter() - start
            self.attempted += unit.items
            if error is None:
                try:
                    problems = unit.check(out, unit.expect)
                    done = unit.items
                    failed = min(unit.items, len(problems))
                except Exception:
                    error = traceback.format_exc()
            if error is not None:  # the unit produced nothing usable: none of its items finished
                problems, done, failed = {unit.name: error}, 0, unit.items
            finished += done
            self.failed += failed
            for item, reason in problems.items():
                if (unit.name, item, reason) not in self._reported:  # once per run, not once per pass
                    self._reported.add((unit.name, item, reason))
                    print(f"FAILED {unit.name} {item}: {reason}", file=sys.stderr)
        return timed, finished

    def measure(self, seconds: float) -> tuple[list[float], float]:
        """At least MIN_PASSES whole passes, stopping at the pass boundary nearest to ``seconds``
        of timed work.

        Returns the timed seconds of each pass, and the items finished over the timed seconds
        of all passes.  On a shared machine the speed drifts in spells of seconds to minutes;
        the whole window averages them, where a median over passes follows whichever spell
        holds most of the passes.
        """
        times = []
        finished = 0
        while len(times) < MIN_PASSES or sum(times) + times[-1] / 2 < seconds:
            timed, done = self.run_pass()
            times.append(timed)
            finished += done
        return times, finished / sum(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 tiny: bool = False, import_s: float = 0.0):
    """Set up, warm up and measure one workload; returns (metrics, attempted, failed, summary)."""
    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](tiny=tiny)
    generate_s = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        units = workload.generate(np.random.default_rng(seed), workdir / f"inputs{rep}")
        generate_s.append(time.perf_counter() - start)
    runner = Runner(units)
    warmup_s, _ = runner.run_pass()
    setup_s = import_s + statistics.median(generate_s) + warmup_s

    if not trace:
        times, rate = runner.measure(seconds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (rate, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        plain, _ = runner.measure(seconds / 2)
        tracer = tracing.Tracer()
        runner.tracer = tracer
        with tracer.patched():
            with tracer.item("setup"):
                workload.generate(np.random.default_rng(seed), workdir / "inputs_traced")
            times, rate = runner.measure(seconds / 2)
        values = tracer.layer_metrics(len(times))
        values["trace.overhead_frac"] = statistics.median(times) / statistics.median(plain) - 1.0
        metrics = {key: (values[key], unit) for key, unit in tracing.metric_units().items()}

    summary = {
        "setup_s": setup_s, "import_s": import_s, "generate_s": generate_s, "warmup_s": warmup_s,
        "pass_s": times, "items_per_s": rate,
        "failed_frac": runner.failed / runner.attempted,
    }
    return metrics, runner.attempted, runner.failed, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import numpy  # noqa: F401  (counted in the import time)

    import_s = time.perf_counter() - _START
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the scratch directory
    meta = metadata(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failed, summary = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    print_result(meta, summary, metrics, attempted, failed)
    return 0


def print_result(meta: dict, summary: dict, metrics: dict, attempted: int, failed: int):
    """Metadata and a readable summary, then the result object as the last line."""
    print(json.dumps({"meta": meta, "summary": summary}))
    print(f"failed_frac {summary['failed_frac']:.6g} ratio ({failed} of {attempted} items)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
