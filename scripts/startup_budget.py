#!/usr/bin/env python3
"""Time the command line's start-up against one short sweep, per source tree.

Usage, from the root of a checkout:

    python3 scripts/startup_budget.py --out BENCH_<n>.json [--tree LABEL=SRC_DIR ...]

Each ``--tree`` is an ``electrolum`` source directory (default: this
checkout's ``src``).  Each of ``ROUNDS`` rounds runs, in fresh processes
and for each tree in turn (the order reversed every other round), two
commands:

* the benchmark's own set-up probe, ``SETUP_PROBE`` of
  ``perfbench/run.py`` (interpreter start, ``import electrolum.cli``,
  validation of one configuration), on the ``sweep-n8`` input;
* one ``python -m electrolum --mode sweep`` on that input: three eta
  values at n_max 8, spectrum, closed-form and rate-model columns on.

After the timed rounds, ``IMPORTTIME_RUNS`` runs of each command under
``python -X importtime`` give the median self time of every electrolum
module, and the cumulative time of ``electrolum.cli`` and of each module
that validation does not need (``dataclasses``, ``inspect``,
``argparse``, numpy) where one is loaded.  One untimed
run of each command per tree comes first, as in the benchmark, to fill
the byte-code cache where writing one is allowed.

The JSON written to ``--out`` holds, per tree, the samples, median and
quartiles of both wall times and the import breakdown, next to the
host, Python, numpy, BLAS thread count, n_max and whether
``PYTHONDONTWRITEBYTECODE`` is set.  The workload input is the one
``perfbench/workloads.py`` draws for ``sweep-n8`` from ``SEED``;
neither file is changed.  Every process runs with ``BLAS_THREADS`` BLAS
threads.  This is a measurement script, not a test.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]  # workloads imports electrolum
from perfbench_files import load  # noqa: E402  perfbench/<name>.py by path, unchanged

ROUNDS = 30
IMPORTTIME_RUNS = 5
SEED = 1
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# modules that validating a configuration does not need
NOT_FOR_VALIDATION = ("dataclasses", "inspect", "argparse", "numpy")


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

    probe = load("run").SETUP_PROBE
    raw = load("workloads").WORKLOADS["sweep-n8"].make_input(random.Random(SEED))

    base_env = dict(os.environ, **{name: str(BLAS_THREADS) for name in BLAS_ENV})
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = work / "input.json"
        config.write_text(json.dumps(raw, indent=1))
        commands = {
            "setup": ["-c", probe, str(config)],
            "sweep": ["-m", "electrolum", "--config", str(config),
                      "--out", str(work / "out"), "--mode", "sweep"],
        }

        def run(label, name, *flags):
            env = dict(base_env, PYTHONPATH=str(trees[label]))
            start = time.perf_counter()
            result = subprocess.run([sys.executable, *flags, *commands[name]], env=env,
                                    cwd=work, capture_output=True, text=True, timeout=120)
            wall = time.perf_counter() - start
            if result.returncode != 0:
                raise SystemExit(f"{label} {name} failed:\n{result.stderr[-2000:]}")
            return wall, result.stderr

        for label in trees:
            for name in commands:
                run(label, name)  # warm-up, not timed
        walls = {label: {name: [] for name in commands} for label in trees}
        for k in range(ROUNDS):
            for label in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
                for name in commands:
                    walls[label][name].append(run(label, name)[0])

        results = {}
        for label in trees:
            imports = {}
            for name in commands:
                runs = [import_ms(run(label, name, "-X", "importtime")[1])
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
            results[label] = {
                # no absolute path: a tree outside this checkout is known by its label
                "src": (str(trees[label].relative_to(ROOT))
                        if trees[label].is_relative_to(ROOT) else None),
                "setup_s": summary(walls[label]["setup"]),
                "sweep_wall_s": summary(walls[label]["sweep"]),
                "importtime": imports,
            }

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "what": "fresh-process wall time of the set-up probe and of one sweep-n8 CLI "
                "sweep, alternated per round; -X importtime self and cumulative times",
        "host": {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(), "load_avg_at_end": os.getloadavg()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"library": blas.get("name"), "threads": BLAS_THREADS},
        "n_max": raw["n_max"],
        "sweep_input": raw,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "rounds": ROUNDS,
        "importtime_runs": IMPORTTIME_RUNS,
        "seed": SEED,
        "trees": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for label, result in results.items():
        print(f"{label}: setup_s {result['setup_s']['median']:.4f}, "
              f"sweep_wall_s {result['sweep_wall_s']['median']:.4f}, "
              f"{result['importtime']['setup']['cumulative_ms']['electrolum.cli']:.1f} ms "
              "(probe, import electrolum.cli)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
