#!/usr/bin/env python3
"""Time the command line's compute-bound runs and each build layer, per tree.

Usage, from the root of a checkout:

    python3 scripts/bench.py --out BENCH_<n>.json [--tree LABEL=SRC_DIR ...]

Each ``--tree`` is an ``electrolum`` source directory (default: this
checkout's ``src``).  Every process is a fresh interpreter with the tree
first on its path; each round runs every tree once, in turn, the order
reversed every other round.  The record has two parts per tree:

* ``compute``: after one untimed run each, the wall time of a
  ``--mode spectrum`` run and a ``--mode sweep`` run on the inputs
  ``COMPUTE_INPUTS``, large enough that computation, not start-up,
  dominates: the median and quartiles (``q1``, ``q3``) of the rounds.
* ``layers``: one :func:`layer_worker` per round, which times each layer
  of a system build ``REPEATS`` times in process, for every n_max of
  ``N_MAX``, eta of ``ETAS`` and both symbolic bias points, and keeps
  the best.  The record holds the best over all rounds and the median
  and quartiles (``q1_s``, ``q3_s``) of the per-round bests;
  ``identical_results`` says whether every worker wrote the same
  spectrum and window fluxes, bit for bit, and ``moved_results`` maps
  each case whose results differ to its largest relative move
  (:func:`moved_results`).

A difference between trees is read against the quartiles of their
per-round samples: a median of one tree inside the other's quartiles is
not a measured difference.

Start-up, which dominates a gated benchmark operation, is timed by the
benchmark itself (``setup_s`` and ``wall_s`` of ``perfbench/run.py``).
Both parts run ``ROUNDS`` rounds with ``BLAS_THREADS`` BLAS threads
(module constants), written to ``--out`` next to the host (with its
load average at the start and at the end), Python, numpy, the BLAS
library, the inputs and whether ``PYTHONDONTWRITEBYTECODE`` is set.
No ``perfbench/`` file is changed.  This is a measurement script, not a
test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

# Importing this module must not touch sys.path: a layer worker imports
# it with the tree under test first on its path, and main() alone puts
# this checkout's tests there.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 1800
ROUNDS = 10
BLAS_THREADS = 1

COMPUTE_INPUTS = {
    "spectrum": {"eta": 1.0, "n_max": 128},
    "sweep": {"eta": 0.1, "n_max": 32,
              "sweep": {"variable": "eta", "values": [k / 200 for k in range(1, 201)]}},
}

REPEATS = 5
N_MAX = (8, 16, 32, 64, 128)
ETAS = (0.1, 1.0)
MODES = ("omega_G", "omega_G_plus_omega_plus")
GRID_POINTS = 4001
LAYERS = ("hamiltonian", "dressed_basis", "all_channels", "build_liouvillian",
          "steady_state", "emission_spectrum", "window_fluxes")


def summary(samples) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": samples}


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


def fresh_walls(runs, threads, commands, rounds, cwd) -> dict:
    """``{label: {command: [wall s, ...]}}`` of fresh processes on the tree ``runs[label]``.

    After one untimed run of each command per label, the labels take
    turns for ``rounds`` rounds (:func:`alternated`), each running every
    command of ``commands`` (name -> interpreter arguments) once.
    """
    for label in runs:
        for argv in commands.values():
            run([runs[label]], threads, argv, cwd)  # warm-up, not timed
    walls = {label: {name: [] for name in commands} for label in runs}
    for label in alternated(list(runs), rounds):
        for name, argv in commands.items():
            walls[label][name].append(run([runs[label]], threads, argv, cwd)[0])
    return walls


def cli_commands(work, inputs) -> dict:
    """mode -> ``python -m electrolum`` arguments of that mode on ``work/<mode>.json``.

    Each configuration file holds ``inputs[mode]``; the tables go to ``work/out``.
    """
    commands = {}
    for mode, raw in inputs.items():
        config = work / f"{mode}.json"
        config.write_text(json.dumps(raw, indent=1))
        commands[mode] = ["-m", "electrolum", "--config", str(config),
                          "--out", str(work / "out"), "--mode", mode]
    return commands


def compute(trees):
    """Per tree, the :func:`summary` of each command's wall times."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        walls = fresh_walls(trees, BLAS_THREADS, cli_commands(work, COMPUTE_INPUTS),
                            ROUNDS, work)
    return {label: {f"{name}_wall_s": summary(samples) for name, samples in per.items()}
            for label, per in walls.items()}


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


def layer_summary(per_round) -> dict:
    """Per case and layer: the best, median and quartiles of the per-round bests."""
    results = {}
    for case in per_round[0]["times"]:
        results[case] = {}
        for layer in LAYERS:
            samples = [r["times"][case][layer] for r in per_round]
            q1, _, q3 = statistics.quantiles(samples, n=4)
            results[case][layer] = {"best_s": min(samples),
                                    "median_s": statistics.median(samples),
                                    "q1_s": q1, "q3_s": q3}
    return results


def moved_results(outputs) -> dict:
    """Each case whose results differ between workers -> its largest relative move.

    A move is ``|a - b| / max(|a|, |b|)`` between a worker's value and the
    first worker's, or inf where only the lengths of their result lists differ.
    Empty when every worker wrote the same results, bit for bit.
    """
    moved = {}
    for output in outputs[1:]:
        for case, values in output.items():
            first = outputs[0][case]
            if values != first:
                move = max((abs(a - b) / max(abs(a), abs(b))
                            for a, b in zip(values, first) if a != b), default=math.inf)
                moved[case] = max(moved.get(case, 0.0), move)
    return moved


def layers(trees):
    """(per tree, :func:`layer_summary`; :func:`moved_results` over all workers)."""
    runs = {label: [] for label in trees}
    for label in alternated(list(trees), ROUNDS):
        _, stdout, _ = run([trees[label], HERE], BLAS_THREADS,
                           ["-c", "import bench; bench.layer_worker()"])
        runs[label].append(json.loads(stdout))
    results = {label: layer_summary(per_round) for label, per_round in runs.items()}
    return results, moved_results([r["results"] for per_round in runs.values()
                                   for r in per_round])


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

    sys.path.insert(0, str(ROOT / "tests"))
    from perfbench_files import load  # perfbench/<name>.py by path, unchanged

    run = load("run")
    load_at_start = os.getloadavg()
    compute_results = compute(trees)
    layer_results, moved = layers(trees)
    load_at_end = os.getloadavg()

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "host": {"cpu_model": run.cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "load_avg_at_start": load_at_start,
                 "load_avg_at_end": load_at_end},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"library": blas.get("name"), "threads": BLAS_THREADS},
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "compute": {
            "what": "fresh-process wall time of one CLI run per mode on inputs where "
                    "computation dominates, alternated between the trees per round",
            "rounds": ROUNDS,
            "inputs": COMPUTE_INPUTS,
        },
        "layers": {
            "what": "in-process wall time of each layer of one system build, best of "
                    f"{REPEATS} calls per worker, over {ROUNDS} alternated worker rounds",
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "n_max": list(N_MAX),
            "eta": list(ETAS),
            "mu_mode": list(MODES),
            "grid_points": GRID_POINTS,
            "identical_results": not moved,
            "moved_results": moved,
        },
        "trees": {label: {
            # no absolute path: a tree outside this checkout is known by its label
            "src": str(src.relative_to(ROOT)) if src.is_relative_to(ROOT) else None,
            "compute": compute_results[label],
            "layers": layer_results[label],
        } for label, src in trees.items()},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for label in trees:
        layer_total = sum(v["best_s"] for layer in layer_results[label].values()
                          for v in layer.values())
        compute_s = ", ".join(
            f"{name} {value['median']:.3f} ({value['q1']:.3f}-{value['q3']:.3f})"
            for name, value in compute_results[label].items())
        print(f"{label}: compute {compute_s}, best layer total {layer_total:.3f} s")
    print(f"identical_results: {not moved}, moved_results: {moved}")
    print("load average (1, 5, 15 min): "
          f"{' '.join(f'{x:.2f}' for x in load_at_start)} at start, "
          f"{' '.join(f'{x:.2f}' for x in load_at_end)} at end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
