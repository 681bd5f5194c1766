"""Every preset CSV against its golden file in perfbench/reference/.

The comparison rule is the benchmark's: status and class cells match
exactly; numeric cells match to 1e-10 relative with a 1e-12 absolute floor;
the steady-state residual only has to stay within the solver's bound
1e-10 * max(1, ||D||_F), because any change of solver path moves it at
roundoff. The cells whose text differs at all are counted and printed.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from magnonsteer import derive, format_csv, preset, sweep_columns
from magnonsteer.gaussian import LYAPUNOV_RESIDUAL_TOL
from magnonsteer.measures import ZERO_CLAMP
from magnonsteer.model import build_diffusion
from magnonsteer.sweep import PRESET_IDS, grid_points

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
REL_TOL = 1e-10


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def residual_bound(params) -> float:
    diffusion = build_diffusion(params, derive(params))
    return LYAPUNOV_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(diffusion)))


def cell_matches(column: str, got: str, want: str, bound: float) -> bool:
    if got == "" or want == "":
        return got == want
    if column == "status" or column.startswith("class_"):
        return got == want
    value = float(got)
    if column == "lyap_residual":
        return value <= bound
    return abs(value - float(want)) <= max(REL_TOL * abs(float(want)), ZERO_CLAMP)


@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_preset_matches_golden_csv(preset_id):
    spec = preset(preset_id)
    got = read_rows(format_csv(sweep_columns(spec)))
    want = read_rows((REFERENCE_DIR / f"{preset_id}.csv").read_text())
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    bounds = [residual_bound(p) for p in grid_points(spec)]
    mismatched, text_differs = [], 0
    for index, (row, ref, bound) in enumerate(zip(got, want, bounds)):
        for column in ref:
            text_differs += row[column] != ref[column]
            if not cell_matches(column, row[column], ref[column], bound):
                mismatched.append(f"row {index} {column}: {row[column]} != {ref[column]}")
    print(f"{preset_id}: {text_differs} of {len(want) * len(want[0])} cells differ in text")
    assert not mismatched, "\n".join(mismatched[:12])
