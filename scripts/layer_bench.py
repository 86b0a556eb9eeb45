#!/usr/bin/env python3
"""Time each layer of one system build, in process, per source tree.

Usage, from the root of a checkout:

    python3 scripts/layer_bench.py --out BENCH_<n>.json [--tree LABEL=SRC_DIR ...]

Each ``--tree`` is an ``electrolum`` source directory (default: this
checkout's ``src``).  Each of ``ROUNDS`` rounds starts one worker
process per tree, the tree order reversed every other round.  A worker
imports its tree with one BLAS thread and, for every case, times each
layer ``REPEATS`` times in process and keeps the best:

* ``hamiltonian``, ``dressed_basis``, ``all_channels``,
  ``build_liouvillian`` and ``steady_state``;
* ``emission_spectrum`` on ``GRID_POINTS`` points;
* ``window_fluxes``: ``line_windows`` and then ``window_fluxes``.

The cases are every n_max of ``N_MAX``, eta of ``ETAS`` and both
symbolic bias points.  The JSON written to ``--out`` holds, per tree,
case and layer, the best time over all rounds and the median of the
per-round bests, next to the host, Python, numpy, BLAS library and
thread count.  ``identical_results`` says whether every tree wrote the
same spectrum and window fluxes, bit for bit.  This is a measurement
script, not a test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROUNDS = 10
REPEATS = 5
N_MAX = (8, 16, 32, 64, 128)
ETAS = (0.1, 1.0)
MODES = ("omega_G", "omega_G_plus_omega_plus")
GRID_POINTS = 4001
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("hamiltonian", "dressed_basis", "all_channels", "build_liouvillian",
          "steady_state", "emission_spectrum", "window_fluxes")


def best_of(fn):
    """(best wall time in s over REPEATS calls, the last result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def worker() -> None:
    """Time every case on the electrolum found on sys.path; print JSON to stdout."""
    import inspect

    from electrolum import SystemParams
    from electrolum.dissipators import all_channels
    from electrolum.hilbert import ModelSpace
    from electrolum.pipeline import (
        DressedSystem,
        build_liouvillian,
        dressed_basis,
        hamiltonian,
        resolve_mu,
        steady_state,
    )
    from electrolum.spectrum import emission_spectrum, line_windows, window_fluxes

    # trees from before the bath rate matrices pass the basis as well
    takes_basis = len(inspect.signature(build_liouvillian).parameters) == 2
    grid = numpy.linspace(0.5, 1.5, GRID_POINTS)
    times, results = {}, {}
    for n_max in N_MAX:
        for eta in ETAS:
            for mode in MODES:
                case = f"n{n_max}-eta{eta}-{mode}"
                t = times[case] = {}
                space = ModelSpace(n_max)
                params = SystemParams(eta=eta)
                t["hamiltonian"], h = best_of(lambda: hamiltonian(params, space))
                t["dressed_basis"], basis = best_of(lambda: dressed_basis(h, space))
                params = params._replace(mu=resolve_mu(mode, basis))
                t["all_channels"], channels = best_of(lambda: all_channels(basis, params))
                args = (basis, channels) if takes_basis else (channels,)
                t["build_liouvillian"], lv = best_of(lambda: build_liouvillian(*args))
                t["steady_state"], p = best_of(lambda: steady_state(lv))
                system = DressedSystem(params, basis, channels, lv, p)
                t["emission_spectrum"], spec = best_of(lambda: emission_spectrum(system, grid))
                t["window_fluxes"], fluxes = best_of(
                    lambda: window_fluxes(system, line_windows(basis, channels)))
                results[case] = [float(spec.values.sum()), *map(float, fluxes.values())]
    json.dump({"times": times, "results": results}, sys.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC_DIR",
                        help="an electrolum source directory to time (repeatable)")
    args = parser.parse_args(argv)

    trees = {}
    for item in args.tree or [f"this={ROOT / 'src'}"]:
        label, sep, src = item.partition("=")
        src = Path(src).resolve()
        if not sep or not (src / "electrolum" / "__init__.py").is_file():
            parser.error(f"--tree {item!r}: expected LABEL=DIR with DIR/electrolum")
        trees[label] = src

    base_env = dict(os.environ, **{name: "1" for name in BLAS_ENV})
    runs = {label: [] for label in trees}
    for k in range(ROUNDS):
        for label in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            env = dict(base_env, PYTHONPATH=os.pathsep.join([str(trees[label]), str(HERE)]))
            result = subprocess.run(
                [sys.executable, "-c", "import layer_bench; layer_bench.worker()"],
                env=env, capture_output=True, text=True, timeout=1800)
            if result.returncode != 0:
                raise SystemExit(f"{label} failed:\n{result.stderr[-2000:]}")
            runs[label].append(json.loads(result.stdout))

    results = {}
    for label, per_round in runs.items():
        layers = {}
        for case in per_round[0]["times"]:
            layers[case] = {}
            for layer in LAYERS:
                samples = [r["times"][case][layer] for r in per_round]
                layers[case][layer] = {"best_s": min(samples),
                                       "median_s": statistics.median(samples)}
        results[label] = {
            # no absolute path: a tree outside this checkout is known by its label
            "src": (str(trees[label].relative_to(ROOT))
                    if trees[label].is_relative_to(ROOT) else None),
            "layers": layers,
        }
    outputs = [r["results"] for per_round in runs.values() for r in per_round]

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "what": "in-process wall time of each layer of one system build, best of "
                f"{REPEATS} calls per worker, over {ROUNDS} alternated worker rounds",
        "host": {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "load_avg_at_end": os.getloadavg()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"library": blas.get("name"), "threads": 1},
        "n_max": list(N_MAX),
        "eta": list(ETAS),
        "mu_mode": list(MODES),
        "grid_points": GRID_POINTS,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "identical_results": all(r == outputs[0] for r in outputs),
        "trees": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for label, result in results.items():
        total = {n: sum(v["best_s"] for case, layer in result["layers"].items()
                        if case.startswith(f"n{n}-") for v in layer.values())
                 for n in N_MAX}
        print(f"{label}: best total per n_max (s, 4 cases): "
              + ", ".join(f"{n}: {s:.4f}" for n, s in total.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
