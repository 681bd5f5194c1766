"""Every preset CSV against its golden file in perfbench/reference/.

The comparison rule is the benchmark's, imported from ``perfbench.bench``:
status and class cells match exactly; numeric cells match to 1e-10 relative
with a 1e-12 absolute floor; the steady-state residual only has to stay
within the solver's bound 1e-10 * max(1, ||D||_F), because any change of
solver path moves it at roundoff. The cells whose text differs at all are
counted and printed.
"""

import pytest

from magnonsteer import format_csv, preset, sweep_columns
from magnonsteer.sweep import PRESET_IDS, grid_points
from perfbench.bench import REFERENCE_DIR, cell_matches, read_csv, residual_bound


@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_preset_matches_golden_csv(preset_id):
    spec = preset(preset_id)
    got = read_csv(format_csv(sweep_columns(spec)))
    want = read_csv((REFERENCE_DIR / f"{preset_id}.csv").read_text())
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
