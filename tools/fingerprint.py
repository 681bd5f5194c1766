"""Print SHA-256 digests of the package's outputs on fixed inputs.

Five digests, each over the exact bits of what it reads:

- ``presets``: the seven preset CSV files, as ``magnonsteer preset`` writes
  them;
- ``point_stream``: ``run_point``'s ``to_flat_dict()``, ``status``,
  ``reason`` and ``max_real_part`` on the benchmark's 2,000 ``point_stream``
  inputs at seed 0;
- ``oracle_check``: ``steady_state_covariance`` and ``analytic_covariance``
  on the first 500 ``oracle_check`` inputs at seed 0;
- ``thresholds``: ``find_threshold`` on every numeric output of every
  preset: the threshold, on whichever side the output is positive, or the
  class and message of the error it raises;
- ``input_output``: ``run_point`` as for ``point_stream``, on the same
  inputs rebuilt in the ``input_output`` diffusion mode, and
  ``analytic_covariance`` on each of them that is ``ok``. No other digest
  reaches that mode: the point and oracle inputs draw ``paper`` and
  ``consistent``, and every preset is ``paper``.

The point and oracle inputs come from ``perfbench.bench.make_inputs``. A
change that is meant to keep every number prints the same five lines as its
parent commit.

Usage: python tools/fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]  # this checkout's package and benchmark

from magnonsteer import analytic, cli, errors, model, sweep  # noqa: E402
from perfbench.bench import PRESET_IDS, make_inputs  # noqa: E402

SEED = 0
POINTS = 2000
ORACLE_POINTS = 500


def preset_digest(preset_ids: tuple[str, ...] = PRESET_IDS) -> str:
    """The digest of the preset CSV files, written by the command line in turn."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for preset_id in preset_ids:
            path = Path(tmp) / f"{preset_id}.csv"
            if cli.main(["preset", "--id", preset_id, "--out", str(path)]) != cli.EXIT_OK:
                raise RuntimeError(f"preset {preset_id} did not run")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def point_digest(count: int = POINTS, mode: str | None = None) -> str:
    """The digest of ``run_point`` on the first ``count`` point_stream inputs.

    Each result is JSON text, whose floats are the shortest text that reads
    back to the same bits. With a diffusion ``mode``, each input is rebuilt
    in that mode, and the closed-form covariance of each ``ok`` point is
    digested after its result.
    """
    digest = hashlib.sha256()
    for params in make_inputs("point_stream", SEED, count):
        if mode is not None:
            params = params.replace(diffusion_mode=mode)
        result = sweep.run_point(params)
        digest.update(json.dumps([result.to_flat_dict(), result.status, result.reason,
                                  result.max_real_part]).encode())
        if mode is not None and result.status == "ok":
            digest.update(analytic.analytic_covariance(params).tobytes())
    return digest.hexdigest()


def oracle_digest(count: int = ORACLE_POINTS) -> str:
    """The digest of the solved and the closed-form covariance on oracle_check inputs."""
    digest = hashlib.sha256()
    for params in make_inputs("oracle_check", SEED, count):
        digest.update(sweep.steady_state_covariance(params).tobytes())
        digest.update(analytic.analytic_covariance(params, model.derive(params)).tobytes())
    return digest.hexdigest()


def threshold_digest(preset_ids: tuple[str, ...] = PRESET_IDS) -> str:
    """The digest of ``find_threshold`` on each numeric output of each preset."""
    digest = hashlib.sha256()
    for preset_id in preset_ids:
        spec = sweep.preset(preset_id)
        for measure in spec.outputs:
            if measure.startswith("class_"):
                continue
            try:
                result = sweep.find_threshold(spec, measure)
            except errors.MagnonSteerError as exc:
                result = [type(exc).__name__, str(exc)]
            digest.update(json.dumps([preset_id, measure, result]).encode())
    return digest.hexdigest()


def main() -> int:
    for name, digest in (("presets", preset_digest), ("point_stream", point_digest),
                         ("oracle_check", oracle_digest), ("thresholds", threshold_digest),
                         ("input_output", lambda: point_digest(mode="input_output"))):
        print(f"{digest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
