"""scripts/reference_outputs.py against the committed reference copy of its 32 tables.

The first check validates each table's configuration, with no system
built: the script would otherwise fail only when someone runs it after a
configuration key is gone.  The second writes all 32 tables (about
0.6 s) and checks every cell of ``tests/reference/`` within ``RTOL``.
The reference copy holds the 27 sweep and reader tables whole, every
``STEP``-th row of each spectrum (the first and last included), and in
``SHA256SUMS`` the SHA-256 of all 32 full files; whether the new tables
are byte-identical to those is reported in the terminal summary, for
information.  A change that moves cells on purpose rewrites the copy in
the same commit, from the repository root::

    python3 scripts/reference_outputs.py OUT
    (cd OUT && sha256sum *.csv) > tests/reference/SHA256SUMS
    for f in OUT/*.csv; do n=$(basename $f); case $n in
      spectrum_*) awk '/^#/ {print; next} !seen {print; seen=1; next} (n++ % 10 == 0)' $f ;;
      *) cat $f ;;
    esac > tests/reference/$n; done
"""

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from electrolum import SystemParams
from electrolum.cli import validate_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reference_outputs.py"
REFERENCE = Path(__file__).resolve().parent / "reference"
STEP = 10  # rows kept of each committed spectrum
# Another BLAS or LAPACK build may move the last bits of the eigenvectors
# and of every sum.  Scaling each chain element by 1 + 4e-16 * N(0, 1)
# moved no cell of the 32 tables by more than 5e-12 relative, so 1e-9
# passes such noise with a wide margin and still flags any change of the
# physics, whose acceptance bounds are about 1e-2.
RTOL = 1e-9
REPORT_LINES = []  # echoed by conftest's terminal summary


@pytest.fixture(scope="module")
def reference_outputs():
    spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_table_configuration_validates(reference_outputs):
    runs = list(reference_outputs.runs())
    assert len(runs) == 31  # with readers.csv, the 32 files of the set
    assert len({name for name, _, _ in runs}) == len(runs)
    for name, mode, raw in runs:
        config = validate_config({**raw, "outputs": {mode: f"{name}.csv"}})
        assert (config.sweep is not None) == (mode == "sweep"), name
    # the rates the overrides tables were written with, each by its own name
    assert validate_config(reference_outputs.OVERRIDES).base == SystemParams(
        eta=0.2, gamma_in=1e-6, gamma_out=2e-6, gamma_cav=1e-3, omega_e=1.1)


def decimated(text: str) -> str:
    """Metadata, header and every STEP-th data row of a spectrum table."""
    lines = text.splitlines(keepends=True)
    head = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    return "".join(lines[:head] + lines[head::STEP])


def cells(line: str) -> list:
    """The cells of one table line: the value of a '# key = value' line, else the CSV fields."""
    return line.split(" = ", 1) if line.startswith("#") else line.split(",")


def same_value(old: str, new: str) -> bool:
    try:
        return math.isclose(float(new), float(old), rel_tol=RTOL, abs_tol=0.0)
    except ValueError:
        return old == new


def moved_cells(name: str, old: str, new: str) -> list:
    """'file:line:column: old -> new' of every cell that moved beyond RTOL."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} lines -> {len(new_lines)}"]
    moved = []
    for row, (old_line, new_line) in enumerate(zip(old_lines, new_lines), 1):
        old_cells, new_cells = cells(old_line), cells(new_line)
        if len(old_cells) != len(new_cells):
            moved.append(f"{name}:{row}: {old_line} -> {new_line}")
            continue
        moved += [f"{name}:{row}:{col}: {a} -> {b}"
                  for col, (a, b) in enumerate(zip(old_cells, new_cells), 1)
                  if a != b and not same_value(a, b)]
    return moved


def test_tables_match_the_reference_copy(reference_outputs, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(tmp_path)])
    with pytest.warns(UserWarning, match="outside the grid"):  # the eta 0.8 spectrum
        reference_outputs.main()
    digests = dict(line.split()[::-1] for line in (REFERENCE / "SHA256SUMS").read_text().splitlines())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    assert sorted(p.name for p in REFERENCE.glob("*.csv")) == sorted(digests)

    moved, identical = [], 0
    for name, digest in sorted(digests.items()):
        new = (tmp_path / name).read_text()
        identical += hashlib.sha256(new.encode()).hexdigest() == digest
        moved += moved_cells(name, (REFERENCE / name).read_text(),
                             decimated(new) if name.startswith("spectrum_") else new)
    REPORT_LINES.append(f"REFERENCE TABLES: {identical} of {len(digests)} byte-identical, "
                        f"{len(moved)} cells moved beyond rel {RTOL:g}")
    assert not moved, "cells moved beyond the tolerance:\n" + "\n".join(moved)
