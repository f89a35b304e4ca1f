"""Benchmark of the cbs2 engine: one closed-loop workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's own ``src`` directory.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it records spans around every call it makes into the
cbs2 layers and reports per-layer metrics, then repeats the workload in a
child process with OPENBLAS_NUM_THREADS=1 as a reference.  The measured
runs set no BLAS thread variable.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Set-up is measured this many times per run, in fresh processes.
SETUP_SAMPLES = 3

#: Items a run completes however long they take; a spectrum-sweep item
#: can outlast --seconds, and two items check both anchors.
MIN_ITEMS = 2

#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_ITEMS = 100

CHILD_TIMEOUT_S = 150

#: Per-layer metrics of the traced run: (name, unit).  Layers a workload
#: does not call read 0.
LAYER_METRICS = (
    ("spectrum.sweep.freqs", "count"),
    ("spectrum.sweep.self_s", "s"),
    ("spectrum.sweep.ms_per_freq", "ms"),
    ("spectrum.SpectrumEngine.calls", "count"),
    ("spectrum.SpectrumEngine.self_s", "s"),
    ("perturbation.build_expansion.self_s", "s"),
    ("generators.free_generator.self_s", "s"),
    ("generators.exchange_generators.self_s", "s"),
    ("perturbation.zeroth_steady_state.self_s", "s"),
    ("perturbation.perturbative_corrections.self_s", "s"),
    ("spectrum.integrate_spectrum.self_s", "s"),
    ("analysis.window_stats.calls", "count"),
    ("analysis.window_stats.self_s", "s"),
    ("average.mc_average.samples", "count"),
    ("average.mc_average.self_s", "s"),
    ("oracle.enhancement_factor.self_s", "s"),
)

#: Metrics repeated by the single-threaded BLAS reference child.
BLAS1_METRICS = (
    "item_s_p50",
    "spectrum.sweep.ms_per_freq",
    "spectrum.SpectrumEngine.self_s",
    "perturbation.build_expansion.self_s",
    "generators.free_generator.self_s",
    "generators.exchange_generators.self_s",
    "perturbation.zeroth_steady_state.self_s",
    "perturbation.perturbative_corrections.self_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role",
        choices=("main", "setup", "blas1"),
        default="main",
        help="internal: 'setup' warms up and prints the time, 'blas1' is the traced reference child",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, units, seconds: float, tracer) -> list:
    """Closed loop, one caller: start the next unit while time is left or
    fewer than MIN_ITEMS items are done, cycling through the inputs, then
    run the workload's closing step."""
    items = []
    start = time.perf_counter()
    index = 0
    while len(items) < MIN_ITEMS or time.perf_counter() - start < seconds:
        items += workload.run_unit(units[index % len(units)], tracer)
        index += 1
    return items + workload.finish(tracer)


def summarize(items: list) -> dict:
    """End-to-end figures of the timed items, failures of all items."""
    times = [item.seconds for item in items if item.timed and not item.failures]
    failed = [item for item in items if item.failures]
    out = {
        "attempted": len(items),
        "failed": len(failed),
        "failures": [f for item in failed for f in item.failures],
        "timed_items": len(times),
    }
    if times:
        out["items_per_s"] = len(times) / sum(times)
        out["item_s_p50"] = statistics.median(times)
        if len(times) >= P90_MIN_ITEMS:
            out["item_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return out


def layer_metrics(tracer, items: list) -> dict:
    """Per-layer figures from the spans of a traced run.

    Counts and self times are per timed item, except the Monte-Carlo
    average, which runs once per run and is reported per call.
    """
    totals = layer_totals(tracer.spans)
    n_items = max(sum(1 for item in items if item.timed), 1)

    def total(layer, key="self_s"):
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0, "counts": {}})
        return entry[key] if key in ("calls", "self_s") else entry["counts"].get(key, 0)

    out = {}
    for metric, _ in LAYER_METRICS:
        layer, key = metric.rsplit(".", 1)
        if layer == "average.mc_average":
            calls = max(total(layer, "calls"), 1)
            out[metric] = total(layer, key) / calls
        elif key == "ms_per_freq":
            freqs = total(layer, "freqs")
            out[metric] = 1e3 * total(layer) / freqs if freqs else 0.0
        else:
            out[metric] = total(layer, key) / n_items
    return out


def _run_child(args, role: str, seconds: float, env=None) -> str:
    """Run this script in a fresh interpreter; return its last output line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "1", "--role", role,
    ]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def run_setup_child(args) -> float:
    """Seconds from spawning a fresh interpreter to the end of its import
    and warm-up, on CLOCK_MONOTONIC, which all processes share."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    return float(_run_child(args, "setup", args.seconds)) - start


def run_blas1_child(args) -> dict:
    """Traced reference run of the same workload with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return json.loads(_run_child(args, "blas1", max(1.0, args.seconds / 3.0), env))


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds bundled with numpy and scipy, with thread counts."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(package.__file__), "..", package.__name__ + ".libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            entry = {"package": package.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload, units):
    """Untraced run: set-up in fresh processes, then the measured loop."""
    setup = [run_setup_child(args) for _ in range(SETUP_SAMPLES)]
    items = measure(workload, units, args.seconds, NullTracer())
    summary = summarize(items)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (summary.get("items_per_s", 0.0), "1/s"),
        "item_s_p50": (summary.get("item_s_p50", 0.0), "s"),
        "peak_rss_mib": (_peak_rss_mib(), "MiB"),
    }
    shown = {
        "item_s_p90": (summary.get("item_s_p90"), "s"),
        "failed_frac": (summary["failed"] / summary["attempted"], "frac"),
    }
    return summary, metrics, shown, {"setup_samples_s": setup}


def per_layer(args, workload, units):
    """Traced run, then the single-threaded BLAS reference child."""
    tracer = Tracer()
    start = time.perf_counter()
    items = measure(workload, units, args.seconds, tracer)
    wall = time.perf_counter() - start
    summary = summarize(items)
    values = layer_metrics(tracer, items)
    values["trace.overhead_frac"] = tracer.overhead_s / (wall - tracer.overhead_s)
    values["trace.item_s_p50"] = summary.get("item_s_p50", 0.0)
    blas1 = run_blas1_child(args)
    for name in BLAS1_METRICS:
        values["blas1." + name] = blas1[name]
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    return summary, metrics, {}, {"spans": tracer.spans, "blas1": blas1}


def _unit(name: str) -> str:
    units = {**dict(LAYER_METRICS), "trace.overhead_frac": "frac",
             "trace.item_s_p50": "s", "item_s_p50": "s"}
    return units[name.removeprefix("blas1.")]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cbs2" / "__init__.py").is_file():
        print(f"perfbench: no cbs2 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cbs2
    from workloads import WORKLOADS

    if Path(cbs2.__file__).resolve().parent != SRC / "cbs2":
        print(f"perfbench: imported cbs2 from {cbs2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload.warm()
    if args.role == "setup":
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0

    units = workload.inputs(args.seed)
    if args.role == "blas1":
        tracer = Tracer()
        items = measure(workload, units, args.seconds, tracer)
        values = layer_metrics(tracer, items)
        values["item_s_p50"] = summarize(items).get("item_s_p50", 0.0)
        print(json.dumps(values))
        return 0

    env = environment()
    if args.trace == 0:
        summary, metrics, shown, extra = end_to_end(args, workload, units)
    else:
        summary, metrics, shown, extra = per_layer(args, workload, units)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{summary['timed_items']} timed items, {summary['attempted']} attempted "
          f"(closed loop, one caller)")
    for name, (value, unit) in {**metrics, **shown}.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {text:>14} {unit}")
    if "item_s_p90" in shown and shown["item_s_p90"][0] is None:
        print(f"  (item_s_p90 needs at least {P90_MIN_ITEMS} items)")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    print("env " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "env": env, "summary": summary, "metrics": metrics, **extra}
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=float) + "\n")

    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
