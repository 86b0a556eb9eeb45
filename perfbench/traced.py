"""Run one benchmark operation with a span around every electrolum layer call.

Usage: python3 traced.py SPANS.json OP_ID cli ARGS...     (electrolum CLI)
       python3 traced.py SPANS.json OP_ID cutoff ARGS...  (cutoff_op.py)

Each public function in ``TARGETS`` is replaced, at the name its caller
looks it up by, with a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory and are written to
SPANS.json when the operation ends, together with the counts taken at
the same boundaries and the BLAS thread counts the libraries report.
Nothing under ``src/`` is modified; the wrappers live only in this
process.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module the caller looks the name up in, attribute, span name).  The
# span name is "<layer>.<function>"; the layer is the electrolum module
# that defines the function, or that calls it for scipy.linalg.schur.
TARGETS = (
    ("electrolum.cli", "main", "cli.main"),
    ("electrolum.cli", "build_system", "pipeline.build_system"),
    ("electrolum", "build_system", "pipeline.build_system"),
    ("electrolum.pipeline", "hamiltonian", "rabi.hamiltonian"),
    ("electrolum.pipeline", "dressed_basis", "rabi.dressed_basis"),
    ("electrolum.dissipators", "all_channels", "dissipators.all_channels"),
    ("electrolum.dissipators", "x_pm", "dissipators.x_pm"),
    ("electrolum.pipeline", "build_liouvillian", "liouvillian.build_liouvillian"),
    ("electrolum.pipeline", "steady_state", "liouvillian.steady_state"),
    ("electrolum.spectrum", "emission_spectrum", "spectrum.emission_spectrum"),
    # the factorization inside emission_spectrum (spectrum.py calls sla.schur)
    ("scipy.linalg", "schur", "spectrum.schur"),
    ("electrolum.spectrum", "line_fluxes", "spectrum.line_fluxes"),
    ("electrolum.cli", "line_windows", "spectrum.line_windows"),
    ("electrolum.cli", "integrate_peak", "spectrum.integrate_peak"),
    ("electrolum.ratemodel", "extract_rates", "ratemodel.extract_rates"),
    ("electrolum.ratemodel", "rate_matrix", "ratemodel.rate_matrix"),
    ("electrolum.ratemodel", "rate_steady_state", "ratemodel.rate_steady_state"),
    ("electrolum.ratemodel", "fluxes", "ratemodel.fluxes"),
    ("electrolum.ratemodel", "analytic_gse", "ratemodel.analytic_gse"),
    ("electrolum.ratemodel", "analytic_el", "ratemodel.analytic_el"),
)


def _channel_counts(channels):
    counts = {"channels": len(channels)}
    for ch in channels:
        counts[f"channels.{ch.bath}"] = counts.get(f"channels.{ch.bath}", 0) + 1
    return counts


# Counts taken from a call's result.  Byte counts are computed from
# array sizes (dense complex generator: D^4 * 16 bytes), not measured.
COUNTERS = {
    "dissipators.all_channels": _channel_counts,
    "liouvillian.build_liouvillian": lambda lv: {"generator_bytes": lv.dim ** 4 * 16},
    "spectrum.emission_spectrum": lambda spec: {
        "points": int(spec.omegas.size),
        "failed_points": len(spec.metadata.get("failed_points", ())),
    },
}


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self._open = []

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op_id,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for getter in getters:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def main(argv) -> int:
    spans_path, op_id, kind, *args = argv
    tracer = Tracer(int(op_id))
    tracer.install()
    if kind == "cli":
        import electrolum.cli
        entry = electrolum.cli.main
    elif kind == "cutoff":
        import cutoff_op
        entry = tracer.wrap(cutoff_op.main, "cutoff_op.main")
    else:
        raise SystemExit(f"unknown operation kind {kind!r}")
    try:
        return entry(args)
    finally:
        Path(spans_path).write_text(json.dumps(
            {"op": tracer.op_id, "spans": tracer.spans, "blas_threads": blas_threads()}
        ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
