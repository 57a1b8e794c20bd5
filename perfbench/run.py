#!/usr/bin/env python3
"""dicke-qpt benchmark: fixed coupling sweeps, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                         # every workload, untraced then traced
    python3 perfbench/run.py --workload large_n --seed 3 --seconds 30 --trace 0

A single run (--workload NAME and --trace 0 or 1) measures passes of the
workload for --seconds seconds in this process, gates the outputs, writes
perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json and prints every
metric by name and unit.  Its last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Without --workload or
--trace it runs each requested workload untraced and then traced, each in
its own process, and prints everything.  See perfbench/README.md.
"""

import os

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:      # before NumPy loads its BLAS
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
# set-up probes per untraced run, half before and half after the passes so
# that a short burst of load on the host does not move every sample at once
SETUP_PROBES = 10
TRACE_MODES = ("0", "1")
WORKLOAD_NAMES = ("paper_datasets", "large_n", "closed_form_grid")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
_SUFFIX_UNITS = {"self_s": "s", "overhead_s": "s", "p50_ms": "ms", "p90_ms": "ms",
                 "bytes": "bytes", "max": "states", "solves_per_point": "solves/point"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    return _SUFFIX_UNITS.get(last, "frac" if last.endswith("frac") else "count")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_checkout() -> None:
    """The benchmark measures the package source of the checkout it runs in."""
    for path in ("src/dicke_qpt/__init__.py", "scripts/fig1_dataset.py"):
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of a dicke-qpt checkout")


def time_setup() -> float:
    """Wall time of one fresh interpreter running the set-up probe."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def env_stamp() -> dict:
    """Machine and library facts; results with different stamps are not compared."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": NPROC, "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
            "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def census(dims, verdict) -> dict:
    """Traffic shares of one pass: solve sizes, IPR requests, points per backend."""
    from spans import PROJ_DIM_BANDS
    sweep_rows = sum(verdict.backends.values())
    return {"solves": len(dims),
            "proj_dim_share": {band: (sum(lo <= d <= hi for d in dims) / len(dims)
                                      if dims else 0.0)
                               for band, lo, hi in PROJ_DIM_BANDS},
            "ipr_share": verdict.ipr_rows / sweep_rows if sweep_rows else 0.0,
            "points_per_backend": dict(sorted(verdict.backends.items()))}


def single_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    check_checkout()
    setup_probes = SETUP_PROBES // 2 if trace == 0 else 0
    setup = [time_setup() for _ in range(setup_probes)]
    sys.path.insert(0, os.path.abspath("src"))
    import dicke_qpt
    if os.path.dirname(os.path.abspath(dicke_qpt.__file__)) != os.path.abspath("src/dicke_qpt"):
        fail(f"imported dicke_qpt from {dicke_qpt.__file__}, not from ./src")
    import numpy as np
    from spans import Patches, SolveCensus, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, os.path.join(OUT, name))
    walls = {False: [], True: []}
    summaries, first_digest, nondeterministic = [], None, False
    t_start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced passes, untraced first
        traced = trace == 1 and len(walls[True]) < len(walls[False])
        patches = Patches()
        recorder = Tracer() if traced else SolveCensus()
        recorder.install(patches)
        workload.install_inputs(patches)
        t0 = time.perf_counter()
        try:
            workload.run_pass()
        finally:
            wall = time.perf_counter() - t0
            patches.undo()
        walls[traced].append(wall)
        if traced:
            summaries.append(recorder.summary(wall))
            tracer = recorder
        dims = recorder.dims
        pass_digest = {file: digest(text) for file, text in workload.outputs().items()}
        first_digest = first_digest or pass_digest
        nondeterministic |= pass_digest != first_digest
        have_all = walls[False] and (trace == 0 or walls[True])
        if have_all and time.perf_counter() - t_start + 0.5 * wall >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [time_setup() for _ in range(setup_probes)]

    verdict = workload.gate(workload.outputs())
    good = verdict.rows - verdict.bad_rows
    failed = max(0, workload.attempted - good)
    attempted = max(workload.attempted, 1)
    correct = not (verdict.fatal or verdict.bad_rows or failed or nondeterministic)

    if trace == 0:
        metrics = {"wall_s": statistics.median(walls[False]),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb,
                   "ok_frac": 1.0 - failed / attempted}
    else:
        metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        metrics["failed_frac"] = failed / attempted
        metrics["eigensolver.n_max_changed"] = verdict.n_max_changed
        np.savez(os.path.join(OUT, f"spans_{name}_seed{seed}.npz"), **tracer.spans())

    reference = None
    if seed == 0:
        with open(os.path.join(HERE, "reference", "digests.json")) as fh:
            reference = json.load(fh)[name] == first_digest
    result = {
        "workload": name, "why": workload.why, "seed": seed, "trace": trace,
        "seconds": seconds, "correct": correct, "attempted": workload.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "passes_s": {"untraced": walls[False], "traced": walls[True]},
        "setup_s": setup,
        "census": census(dims, verdict),
        "env": env_stamp(),
        "gate": {"rows": verdict.rows, "bad_rows": verdict.bad_rows,
                 "n_max_changed": verdict.n_max_changed,
                 "outputs_deterministic": not nondeterministic,
                 "outputs_identical_to_reference": reference,
                 "fatal": verdict.fatal, "problems": verdict.problems},
    }
    with open(os.path.join(OUT, f"BENCH_{name}_seed{seed}_trace{trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return result


def print_result(result: dict) -> None:
    for line in result["gate"]["fatal"] + result["gate"]["problems"]:
        print(f"gate: {line}")
    for key, metric in result["metrics"].items():
        print(f"{key:46s} {metric['value']:>16.6g} {metric['unit']}")


def orchestrate(names, seed: int, seconds: float, traces) -> int:
    """Run each workload/trace pair in its own process and print everything."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{name} --trace {trace} exited {proc.returncode}")
            print(f"== {name} (seed {seed}, {'traced' if trace == '1' else 'untraced'})")
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            if trace == traces[0]:
                combined["attempted"] += last["attempted"]
                combined["failed"] += last["failed"]
            for key, metric in last["metrics"].items():
                combined["metrics"][f"{name}.{key}" if len(names) > 1 else key] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", choices=TRACE_MODES + ("both",), default="both")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all" or args.trace == "both":
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        traces = TRACE_MODES if args.trace == "both" else (args.trace,)
        return orchestrate(names, args.seed, args.seconds, traces)
    os.makedirs(OUT, exist_ok=True)
    result = single_run(args.workload, args.seed, args.seconds, int(args.trace))
    print(f"{args.workload} seed {args.seed}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print_result(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
