"""Write the benchmark's reference outputs into ``perfbench/reference/``.

    python3 perfbench/capture.py

Writes the seven preset CSVs and the outputs of the ``point_stream`` inputs
at the reference seed. The stored files are the golden outputs later
versions are checked against, so rerun this only to adopt a deliberate
change of output.
"""

import csv
import gzip
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from magnonsteer import cli, sweep  # noqa: E402
from perfbench import bench  # noqa: E402


def main() -> int:
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for preset_id in bench.PRESET_IDS:
        code = cli.main(["preset", "--id", preset_id,
                         "--out", str(bench.REFERENCE_DIR / f"{preset_id}.csv")])
        if code != 0:
            return code
    inputs = bench.make_inputs("point_stream", bench.REFERENCE_SEED,
                               bench.DEFAULT_SIZE["point_stream"])
    flats = [sweep.run_point(params).to_flat_dict() for params in inputs]
    columns = ["point"] + list(next(f for f in flats if f["status"] == "ok"))
    with gzip.open(bench.POINT_STREAM_REFERENCE, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for index, flat in enumerate(flats):
            flat["point"] = index
            writer.writerow([_cell(flat.get(key)) for key in columns])
    return 0


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, (str, int)) else f"{value:.12g}"


if __name__ == "__main__":
    sys.exit(main())
