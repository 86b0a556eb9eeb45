"""electrolum benchmark: one workload, closed loop, one operation at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 40 --trace 0

Each operation runs in its own process, so its wall time includes the
interpreter start a user pays, and its peak resident memory is its own.
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics (see perfbench/README.md).  Every output is checked after the
timed loop.  The last line of standard output is the result JSON; the
line before it is a record of the inputs, environment and details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# the keys of workloads.WORKLOADS, which imports numpy and so can only be
# imported after the BLAS threads are pinned
WORKLOAD_NAMES = ("spectrum-n8", "sweep-n8", "cutoff-n12")
SETUP_PROBES = 5
OP_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up as a user pays it: interpreter start, import, config validation
SETUP_PROBE = (
    "import json, sys, electrolum.cli as cli; raw = json.load(open(sys.argv[1])); "
    "[cli.validate_config(c) for c in (raw if isinstance(raw, list) else [raw])]"
)


@dataclass
class Child:
    start: float  # time.perf_counter() at spawn, comparable with child spans
    wall_s: float
    rss_mb: float
    returncode: int
    log: Path


def run_child(argv, env, log: Path) -> Child:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, wall, usage.ru_maxrss / 1024.0, proc.returncode, log)


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int, nproc: int) -> dict:
    import numpy
    import scipy
    from traced import blas_threads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"library": blas.get("name"), "version": blas.get("version"),
                 "pinned_threads": threads, "reported_threads": blas_threads()},
        "nproc": nproc,
        "cpu_model": cpu_model(),
    }


def profile(doc: dict, child: Child) -> dict:
    """Per-function and per-layer times of one traced operation.

    A span's self time is its duration minus its children's; a layer's
    self time sums the self times of its functions.  Time outside every
    root span (interpreter start, imports, exit) is unattributed.
    """
    spans = doc["spans"]
    durations = [s["end"] - s["start"] for s in spans]
    in_children = [0.0] * len(spans)
    for span, d in zip(spans, durations):
        if span["parent"] is not None:
            in_children[span["parent"]] += d
    functions, layers, counts = {}, {}, {}
    for span, d, c in zip(spans, durations, in_children):
        f = functions.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["total_s"] += d
        f["self_s"] += d - c
        layer = span["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + d - c
        for key, value in span.get("counts", {}).items():
            # generator bytes: the largest generator alive at once
            merge = max if key == "generator_bytes" else (lambda a, b: a + b)
            counts[key] = merge(counts.get(key, 0), value)
    roots = sum(d for span, d in zip(spans, durations) if span["parent"] is None)
    first = min((s["start"] for s in spans), default=child.start)
    return {
        "wall_s": child.wall_s,
        "startup_s": first - child.start,
        "unattributed_s": child.wall_s - roots,
        "layers_self_s": layers,
        "functions": functions,
        "counts": counts,
        "blas_threads": doc["blas_threads"],
    }


def layer_metrics(profiles, untraced_wall, traced_wall, cli_bytes) -> tuple[dict, dict]:
    """Gated per-layer metrics, and every named layer figure as detail."""
    def med(fn):
        return statistics.median(fn(p) for p in profiles)

    def total(name):
        return med(lambda p: p["functions"].get(name, {}).get("total_s", 0.0))

    def count(key):
        return med(lambda p: p["counts"].get(key, 0))

    spectrum_s = total("spectrum.emission_spectrum")
    points = count("points")
    gated = {
        "rabi.hamiltonian_s": (total("rabi.hamiltonian"), "s"),
        "rabi.dressed_basis_s": (total("rabi.dressed_basis"), "s"),
        "dissipators.all_channels_s": (total("dissipators.all_channels"), "s"),
        "dissipators.channels": (count("channels"), "count"),
        "liouvillian.build_liouvillian_s": (total("liouvillian.build_liouvillian"), "s"),
        "liouvillian.steady_state_s": (total("liouvillian.steady_state"), "s"),
        "liouvillian.generator_bytes": (count("generator_bytes"), "B"),
        "pipeline.build_system_self_s": (
            med(lambda p: p["functions"]["pipeline.build_system"]["self_s"]), "s"),
        "spectrum.self_s": (med(lambda p: p["layers_self_s"].get("spectrum", 0.0)), "s"),
        "spectrum.calls": (
            med(lambda p: p["functions"].get("spectrum.emission_spectrum", {}).get("calls", 0)),
            "count"),
        "spectrum.points": (points, "count"),
        "spectrum.failed_points": (count("failed_points"), "count"),
        "cli.bytes_written": (cli_bytes, "B"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.unattributed_s": (med(lambda p: p["unattributed_s"]), "s"),
    }
    detail = {
        "spectrum.emission_spectrum_s": spectrum_s,
        "spectrum.schur_s": total("spectrum.schur"),
        "spectrum.us_per_point": 1e6 * spectrum_s / points if points else None,
        "spectrum.points_per_s": points / untraced_wall,
        "spectrum.integrate_peak_s": total("spectrum.integrate_peak"),
        "spectrum.line_fluxes_s": total("spectrum.line_fluxes"),
        "dissipators.x_pm_s": total("dissipators.x_pm"),
        "dissipators.channels_by_bath": {
            key.split(".", 1)[1]: count(key)
            for key in profiles[0]["counts"] if key.startswith("channels.")
        },
        "ratemodel.extract_rates_s": total("ratemodel.extract_rates"),
        "ratemodel.rate_steady_state_s": total("ratemodel.rate_steady_state"),
        "cli.self_s": med(lambda p: p["layers_self_s"].get("cli", 0.0)),
        "layers_self_s": {
            layer: med(lambda p: p["layers_self_s"].get(layer, 0.0))
            for layer in profiles[0]["layers_self_s"]
        },
        "counts_repeat_exactly": all(p["counts"] == profiles[0]["counts"] for p in profiles),
        # traced wall = layers' self times + unattributed, per traced operation
        "layers_self_sum_s": med(lambda p: sum(p["layers_self_s"].values())),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "per_op": profiles,
    }
    return gated, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    nproc = len(os.sched_getaffinity(0))
    parser.add_argument("--blas-threads", type=int, default=min(2, nproc),
                        help="BLAS threads per process (default: min(2, nproc))")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "electrolum" / "__init__.py").is_file():
        print(f"perfbench: no electrolum source tree under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    # pin BLAS threads here, before numpy loads, and in every child
    pins = {name: str(args.blas_threads) for name in BLAS_ENV}
    os.environ.update(pins)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    import electrolum
    from workloads import WORKLOADS, CheckFailed

    if Path(electrolum.__file__).resolve().parent != ROOT / "src" / "electrolum":
        print(f"perfbench: imported electrolum from {electrolum.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = workload.make_input(random.Random(args.seed))
    input_path = work / "input.json"
    input_path.write_text(json.dumps(raw, indent=1))

    probe = [sys.executable, "-c", SETUP_PROBE, str(input_path)]
    run_child(probe, env, work / "warmup.log")  # fills the byte-code cache; not timed
    setup = [] if args.trace else [
        run_child(probe, env, work / f"setup{k}.log").wall_s for k in range(SETUP_PROBES)
    ]

    # closed loop: start another operation (or untraced+traced pair) only
    # while the run would end within half an operation of --seconds
    ops, traced = [], []  # (Child, output dir, spans file or None)
    begin = time.perf_counter()
    while True:
        k = len(ops)
        out = work / f"op{k}"
        ops.append((run_child(workload.argv(input_path, out), env, work / f"op{k}.log"),
                    out, None))
        if args.trace:
            out, spans = work / f"op{k}-traced", work / f"spans{k}.json"
            traced.append((run_child(workload.argv(input_path, out, spans, k), env,
                                     work / f"op{k}-traced.log"), out, spans))
        step = ops[-1][0].wall_s + (traced[-1][0].wall_s if args.trace else 0.0)
        if time.perf_counter() - begin + 0.5 * step >= args.seconds:
            break

    # correctness, outside the timed loop: check each distinct output once
    every = ops + traced
    digests = [sha256(out / workload.output) for _, out, _ in every]
    verdicts, failures, ok = {}, [], []
    for (child, out, _), digest in zip(every, digests):
        if child.returncode != 0 or digest is None:
            tail = child.log.read_text(errors="replace")[-2000:]
            failures.append(f"exit {child.returncode}: {tail}")
        elif digest not in verdicts:
            try:
                verdicts[digest] = workload.check(raw, out)
            except CheckFailed as err:
                verdicts[digest] = None
                failures.append(str(err))
        ok.append(child.returncode == 0 and verdicts.get(digest) is not None)
    failed = ok.count(False)
    good = [child for (child, _, _), passed in zip(ops, ok) if passed] or [c for c, _, _ in ops]

    systems = workload.systems(raw)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "input": raw,
        "systems_per_op": systems,
        "environment": environment(args.blas_threads, nproc),
        "op_wall_s": [c.wall_s for c, _, _ in ops],
        "op_peak_rss_mb": [c.rss_mb for c, _, _ in ops],
        "setup_samples_s": setup,
        "output_sha256": sorted({d or "missing" for d in digests}),
        "checks": verdicts,
        "failures": failures,
        "note": "byte counts are computed from array sizes, not measured",
    }

    wall = statistics.median(c.wall_s for c in good)
    if args.trace:
        good_traced = [t for t, passed in zip(traced, ok[len(ops):]) if passed] or traced
        profiles = [profile(json.loads(spans.read_text()), c)
                    for c, _, spans in good_traced if spans.is_file()]
        if not profiles:
            print(json.dumps({"record": record}))
            print("perfbench: no traced operation wrote its spans", file=sys.stderr)
            return 1
        cli_out = good_traced[0][1] / workload.output
        cli_bytes = cli_out.stat().st_size if workload.kind == "cli" and cli_out.is_file() else 0
        traced_wall = statistics.median(c.wall_s for c, _, _ in good_traced)
        gated, record["layers"] = layer_metrics(profiles, wall, traced_wall, cli_bytes)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in gated.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "systems_per_s": {
                "value": statistics.median(systems / c.wall_s for c in good), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(c.rss_mb for c in good), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
