#!/usr/bin/env python3
"""Time the command line's start-up and each layer of a system build, per source tree.

Usage, from the root of a checkout:

    python3 scripts/bench.py --out BENCH_<n>.json [--tree LABEL=SRC_DIR ...]

Each ``--tree`` is an ``electrolum`` source directory (default: this
checkout's ``src``).  Every process is a fresh interpreter with the tree
first on its path; in each round the trees take turns, the order
reversed every other round.  The record has two parts per tree:

* ``startup``: after one untimed run each (to fill the byte-code cache,
  as the benchmark does), the wall time of the benchmark's set-up probe
  (``SETUP_PROBE`` of ``perfbench/run.py``) and of one ``python -m
  electrolum --mode sweep``, both on the input ``perfbench/workloads.py``
  draws for ``sweep-n8`` from ``SEED``.  Then ``-X importtime`` runs give
  the median self time of every electrolum module and the cumulative
  time of ``electrolum.cli`` and of each module that validation does not
  need (``NOT_FOR_VALIDATION``) where one is loaded.
* ``layers``: one :func:`layer_worker` per round, which times each layer
  of a system build ``REPEATS`` times in process, for every n_max of
  ``N_MAX``, eta of ``ETAS`` and both symbolic bias points, and keeps
  the best.  The record holds the best over all rounds and the median
  and quartiles of the per-round bests; ``identical_results`` says whether every worker
  wrote the same spectrum and window fluxes, bit for bit.

Each part has its own rounds and BLAS thread count (module constants),
both written to ``--out`` next to the host, Python, numpy, the BLAS
library, the sweep input and whether ``PYTHONDONTWRITEBYTECODE`` is set.
No ``perfbench/`` file is changed.  This is a measurement script, not a
test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

# Importing this module must not touch sys.path: a layer worker imports
# it with the tree under test first on its path, and main() alone puts
# this checkout's src there.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 1800

STARTUP_ROUNDS = 30
STARTUP_BLAS_THREADS = 2
IMPORTTIME_RUNS = 5
SEED = 1
# modules that validating a configuration does not need
NOT_FOR_VALIDATION = ("dataclasses", "inspect", "argparse", "numpy")

LAYER_ROUNDS = 10
LAYER_BLAS_THREADS = 1
REPEATS = 5
N_MAX = (8, 16, 32, 64, 128)
ETAS = (0.1, 1.0)
MODES = ("omega_G", "omega_G_plus_omega_plus")
GRID_POINTS = 4001
LAYERS = ("hamiltonian", "dressed_basis", "all_channels", "build_liouvillian",
          "steady_state", "emission_spectrum", "window_fluxes")


def summary(samples) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": samples}


def import_ms(stderr: str) -> dict:
    """``{module: (self, cumulative)}`` in ms, as ``-X importtime`` lists them."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                times[name.strip()] = (int(self_us) / 1000.0, int(cumulative_us) / 1000.0)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def alternated(labels, rounds):
    """The trees in turn for each round, the order reversed every other round."""
    for k in range(rounds):
        yield from (labels if k % 2 == 0 else labels[::-1])


def run(path, threads, argv, cwd=None):
    """(wall time, stdout, stderr) of one fresh interpreter on ``path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)),
               **{name: str(threads) for name in BLAS_ENV})
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                            capture_output=True, text=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv[:2])} on {path[0]} failed:\n{result.stderr[-2000:]}")
    return wall, result.stdout, result.stderr


def startup(trees, probe, raw) -> dict:
    """Per tree: set-up probe and sweep wall times, and their import breakdown."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = work / "input.json"
        config.write_text(json.dumps(raw, indent=1))
        commands = {
            "setup": ["-c", probe, str(config)],
            "sweep": ["-m", "electrolum", "--config", str(config),
                      "--out", str(work / "out"), "--mode", "sweep"],
        }

        def once(label, name, *flags):
            return run([trees[label]], STARTUP_BLAS_THREADS, [*flags, *commands[name]], work)

        for label in trees:
            for name in commands:
                once(label, name)  # warm-up, not timed
        walls = {label: {name: [] for name in commands} for label in trees}
        for label in alternated(list(trees), STARTUP_ROUNDS):
            for name in commands:
                walls[label][name].append(once(label, name)[0])

        results = {}
        for label in trees:
            imports = {}
            for name in commands:
                runs = [import_ms(once(label, name, "-X", "importtime")[2])
                        for _ in range(IMPORTTIME_RUNS)]

                def median_ms(module, column):
                    return statistics.median(r.get(module, (0.0, 0.0))[column] for r in runs)

                own = sorted({m for r in runs for m in r
                              if m == "electrolum" or m.startswith("electrolum.")})
                self_ms = {m: median_ms(m, 0) for m in own}
                # what the front door pulls in, and the modules it need not load
                outside = ["electrolum.cli"] + sorted(
                    {m for r in runs for m in r if m in NOT_FOR_VALIDATION})
                imports[name] = {
                    "electrolum_self_ms": self_ms,
                    "electrolum_self_total_ms": sum(self_ms.values()),
                    "cumulative_ms": {m: median_ms(m, 1) for m in outside},
                }
            results[label] = {"setup_s": summary(walls[label]["setup"]),
                              "sweep_wall_s": summary(walls[label]["sweep"]),
                              "importtime": imports}
    return results


def best_of(fn):
    """(best wall time in s over REPEATS calls, the last result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def layer_worker() -> None:
    """Time every case on the electrolum found on sys.path; print JSON to stdout."""
    from electrolum import ModelSpace, SystemParams
    from electrolum.dissipators import all_channels
    from electrolum.pipeline import (
        DressedSystem,
        build_liouvillian,
        dressed_basis,
        hamiltonian,
        resolve_mu,
        steady_state,
    )
    from electrolum.spectrum import emission_spectrum, line_windows, window_fluxes

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
                t["build_liouvillian"], lv = best_of(lambda: build_liouvillian(channels))
                t["steady_state"], p = best_of(lambda: steady_state(lv))
                system = DressedSystem(params, basis, channels, lv, p)
                t["emission_spectrum"], spec = best_of(lambda: emission_spectrum(system, grid))
                t["window_fluxes"], fluxes = best_of(
                    lambda: window_fluxes(system, line_windows(basis, channels)))
                results[case] = [float(spec.values.sum()), *map(float, fluxes.values())]
    json.dump({"times": times, "results": results}, sys.stdout)


def layers(trees):
    """(per tree and case, each layer's best, quartiles and median time; identical_results)."""
    runs = {label: [] for label in trees}
    for label in alternated(list(trees), LAYER_ROUNDS):
        _, stdout, _ = run([trees[label], HERE], LAYER_BLAS_THREADS,
                           ["-c", "import bench; bench.layer_worker()"])
        runs[label].append(json.loads(stdout))
    results = {label: {} for label in trees}
    for label, per_round in runs.items():
        for case in per_round[0]["times"]:
            results[label][case] = {}
            for layer in LAYERS:
                samples = [r["times"][case][layer] for r in per_round]
                q1, _, q3 = statistics.quantiles(samples, n=4)
                results[label][case][layer] = {"best_s": min(samples),
                                               "median_s": statistics.median(samples),
                                               "q1_s": q1, "q3_s": q3}
    outputs = [r["results"] for per_round in runs.values() for r in per_round]
    return results, all(r == outputs[0] for r in outputs)


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

    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]  # workloads imports electrolum
    from perfbench_files import load  # perfbench/<name>.py by path, unchanged

    probe = load("run").SETUP_PROBE
    raw = load("workloads").WORKLOADS["sweep-n8"].make_input(random.Random(SEED))
    startup_results = startup(trees, probe, raw)
    layer_results, identical = layers(trees)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "host": {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "load_avg_at_end": os.getloadavg()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"library": blas.get("name"), "startup_threads": STARTUP_BLAS_THREADS,
                 "layers_threads": LAYER_BLAS_THREADS},
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "startup": {
            "what": "fresh-process wall time of the set-up probe and of one sweep-n8 CLI "
                    "sweep, alternated per round; -X importtime self and cumulative times",
            "rounds": STARTUP_ROUNDS,
            "importtime_runs": IMPORTTIME_RUNS,
            "seed": SEED,
            "sweep_input": raw,
        },
        "layers": {
            "what": "in-process wall time of each layer of one system build, best of "
                    f"{REPEATS} calls per worker, over {LAYER_ROUNDS} alternated worker rounds",
            "rounds": LAYER_ROUNDS,
            "repeats": REPEATS,
            "n_max": list(N_MAX),
            "eta": list(ETAS),
            "mu_mode": list(MODES),
            "grid_points": GRID_POINTS,
            "identical_results": identical,
        },
        "trees": {label: {
            # no absolute path: a tree outside this checkout is known by its label
            "src": str(src.relative_to(ROOT)) if src.is_relative_to(ROOT) else None,
            "startup": startup_results[label],
            "layers": layer_results[label],
        } for label, src in trees.items()},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for label in trees:
        result = startup_results[label]
        layer_total = sum(v["best_s"] for layer in layer_results[label].values()
                          for v in layer.values())
        print(f"{label}: setup_s {result['setup_s']['median']:.4f}, sweep_wall_s "
              f"{result['sweep_wall_s']['median']:.4f}, best layer total {layer_total:.3f} s")
    print(f"identical_results: {identical}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
