"""Run one benchmark workload and print its metrics and checks.

    python3 bench/run.py --workload train-shift --seed 7 --seconds 12 --trace 0

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` nothing is wrapped and the final line carries the gated
end-to-end metrics; with ``--trace 1`` wrappers record spans around the
package's public functions and the final line carries the per-layer metrics.
Every other stdout line is a human-readable report: run metadata, checks,
each named metric with its unit, and the output digest.  The last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# Fixed before numpy loads so every run uses the same BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_traces"
WORKLOAD_NAMES = ("train-shift", "ablation-eval")
# Set-ups timed per untraced run, half before the measured op and half after
# it.  The host's speed drifts over seconds, so many set-ups at both ends of
# the run give a steadier median than a few at one end.
SETUP_REPEATS = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import corrmatch from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import corrmatch
    if Path(corrmatch.__file__).resolve().parent != SRC / "corrmatch":
        raise ImportError(f"corrmatch resolved to {corrmatch.__file__}")
    return corrmatch


def calibration_ms() -> float:
    """Median time of a fixed CPU kernel (a Python loop and small numpy
    products).  Only the host's speed changes it, so printed beside the
    figures it shows how fast the host ran during the run."""
    import numpy as np
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for k in range(300_000):
            total += k * k
        a = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
        for _ in range(20):
            a = np.tanh(a @ a / 120.0)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def metadata(seed: int, calibration: list[float]) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "corrmatch").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version, "blas_threads": BLAS_THREADS,
            "seed": seed, "src_corrmatch_lines": src_lines,
            "calibration_ms": [round(c, 3) for c in calibration]}


def emit(name: str, value: float, unit: str) -> dict:
    print(f"metric {name} = {value:.6g} {unit}")
    return {"value": value, "unit": unit}


def run_workload(args, work: Path) -> int:
    import numpy as np
    from corrmatch.structure import init_structure
    from layers import TEXT_ONLY, coverage, layer_metrics, unit_of
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    calibration = [calibration_ms()]
    workload = WORKLOADS[args.workload](args.seed)
    tracer = missing = None
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
    run = Run(tracer=tracer)

    def set_up(k):
        state = run.op("setup", lambda: workload.setup(str(work / f"setup-{k}")))
        if k > 0:   # only the first set-up's files feed the measured op
            shutil.rmtree(work / f"setup-{k}", ignore_errors=True)
        return state

    repeats = 1 if args.trace else SETUP_REPEATS
    states = [set_up(k) for k in range(repeats // 2 or 1)]
    if any(state is None for state in states):
        print("error: set-up failed", file=sys.stderr)
        return 1
    workload.measure(states[0], run)
    for k in range(len(states), repeats):
        set_up(k)
    calibration.append(calibration_ms())
    main = run.latencies(workload.main_op)
    if not main:
        print(f"error: no {workload.main_op} operation completed", file=sys.stderr)
        return 1

    print("meta " + json.dumps(metadata(args.seed, calibration), sort_keys=True))
    attempted = len(run.ops)
    failed = sum(1 for _, _, ok in run.ops if not ok)
    for name, (passed, failures) in run.checks.items():
        print(f"check {'ok  ' if not failures else 'FAIL'} {name}: "
              f"{passed}/{passed + failures} passed")
    setup_s = statistics.median(run.latencies("setup"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for kind in dict.fromkeys(k for k, _, _ in run.ops):
        times = run.latencies(kind)
        print(f"ops {kind}: {len(times)} completed in {sum(times):.3f} s, "
              f"median {1e3 * statistics.median(times):.3f} ms")
    emit("setup_s", setup_s, "s")
    for name, (value, unit) in run.info.items():
        emit(name, value, unit)
    emit("failed_ops_ratio", failed / attempted, "ratio")
    emit("peak_rss_mb", peak_rss_mb, "MB")
    print(f"digest sha256:{run.digest.hexdigest()}")

    if args.trace:
        tracer.uninstall()
        config = workload.config
        init = init_structure(config.probe_grid(), config.gallery_grid(), config.t_d)
        learned = tracer.last.get("learning.learn")
        problems = coverage(tracer, missing, args.workload)
        for problem in problems:
            print(f"coverage UNMEASURED {problem}")
        values = layer_metrics(tracer, init.probs,
                               None if learned is None else learned.structure.probs,
                               config.t_c, len(problems))
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"trace {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        metrics = {name: emit(name, value, unit_of(name)) for name, value in values.items()}
        metrics = {name: v for name, v in metrics.items() if name not in TEXT_ONLY}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "op_p50_ms": {"value": 1e3 * float(np.median(main)), "unit": "ms"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import corrmatch from {SRC}: {exc}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"elapsed {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
