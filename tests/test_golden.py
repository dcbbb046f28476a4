"""Recorded CLI output of ``solve``, ``classify``, ``curve``, ``derivative``,
``legendre``, ``estimate`` and ``compare`` for every family.

Each case's stdout must keep the recorded structure (keys, lengths, types,
strings, integers, booleans, CSV header) exactly and every float within
1e-12 absolute.  After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py``; it rewrites only the files
that are missing or whose fresh output no longer matches them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from lqspec import FAMILY_IDS
from lqspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "solve_q2": "solve --q 2",
    "solve_q40": "solve --q 40",
    "classify_q1": "classify --q 1",
    "curve_q0-10": "curve --q-min 0 --q-max 10 --steps 11",
    "derivative_q2": "derivative --q 2",
    "legendre_q0-10": "legendre --q-min 0 --q-max 10 --steps 11",
    "estimate_q2_n20000": "estimate --q 2 --samples 20000 --seed 1",
    "compare_q2_n20000": "compare --q 2 --samples 20000 --seed 1",
}
TOL = 1e-12


def _stdout(family: str, case: str) -> str:
    command, *flags = CASES[case].split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--family", family, *flags]) == 0
    return out.getvalue()


def _parse(text: str):
    """JSON as is; CSV as its header plus rows of floats."""
    if text.startswith("{"):
        return json.loads(text)
    header, *rows = text.splitlines()
    return [header] + [[float(x) for x in row.split(",")] for row in rows]


def _assert_close(got, want, path="$"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= TOL, f"{path}: {got!r} != {want!r}"
    else:  # str, int, bool or None
        assert got == want, path


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILY_IDS)
def test_cli_output_matches_golden(family, case):
    want = (GOLDEN / f"{family}.{case}.out").read_text()
    _assert_close(_parse(_stdout(family, case)), _parse(want))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for family in FAMILY_IDS:
        for case in CASES:
            path = GOLDEN / f"{family}.{case}.out"
            fresh = _stdout(family, case)
            try:
                _assert_close(_parse(fresh), _parse(path.read_text()))
            except (FileNotFoundError, ValueError, AssertionError):
                path.write_text(fresh)
                print(f"rewrote {path.name}")
