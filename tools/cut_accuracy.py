"""Check the cut pass's smallest symplectic eigenvalues against 50-digit arithmetic.

Two sets of states, each checked and reported on its own:

- ``point_stream``: the accepted steady states of the benchmark's 2,000
  ``point_stream`` inputs at seed 0, in the default diffusion mode and
  rebuilt in the ``input_output`` mode;
- ``presets``: the accepted steady states of the seven presets' grid
  points, 1,800 states.

For each of the four sign rows of the cut pass (the three one-versus-two
partial transposes and the state itself), ``gaussian.min_symplectic_eig``
on the whole stack of a set is compared with nu_min from mpmath at 50
digits, where forming nu^2 as the eigenvalues of T V_x T V_p is harmless.
Prints, per set, the worst, 99th-percentile and median relative error of
each sign row and of all of them, and how many rows went to the
eigen-solver instead of the closed form.

Exits 1 if the worst relative error of either set exceeds 1e-11.

Usage: python tools/cut_accuracy.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]  # this checkout's package and benchmark

from magnonsteer import gaussian, model, sweep  # noqa: E402
from perfbench.bench import make_inputs  # noqa: E402

SEED = 0
POINTS = 2000
DIGITS = 50
WORST_BOUND = 1e-11
CUTS = {"LN_c_qm": [-1.0, 1.0, 1.0], "LN_q_cm": [1.0, -1.0, 1.0],
        "LN_m_cq": [1.0, 1.0, -1.0], "min_symplectic_eig": [1.0, 1.0, 1.0]}


def accepted_blocks(points) -> np.ndarray:
    """The block pairs (n, 2, 3, 3) of the points whose steady state is accepted, in order."""
    pairs = []
    for params in points:
        system = model.build_blocks(params, model.derive(params))[None]
        pairs.extend(gaussian.steady_state_blocks(system)[2])
    return np.array(pairs)


def point_stream_points():
    """The point_stream inputs, in the default mode and then in the input_output mode."""
    for mode in (None, "input_output"):
        for params in make_inputs("point_stream", SEED, POINTS):
            yield params if mode is None else params.replace(diffusion_mode=mode)


def preset_points():
    """The grid points of every preset, in preset and row order."""
    for preset_id in sweep.PRESET_IDS:
        yield from sweep.grid_points(sweep.preset(preset_id))


def reference(pair: np.ndarray, signs: list[float]):
    """nu_min of the block pair with T = diag(signs), to DIGITS digits."""
    with mpmath.workdps(DIGITS):
        flip = mpmath.diag([int(sign) for sign in signs])
        vx, vp = (mpmath.matrix(block.tolist()) for block in pair)
        eigenvalues = mpmath.eig(flip * vx * flip * vp, left=False, right=False)
        return min(mpmath.sqrt(mpmath.re(e)) for e in eigenvalues)


def check(name: str, blocks: np.ndarray) -> float:
    """Print the relative errors of one set of states; return the worst."""
    solver = gaussian._eigvalsh_nu
    solved = []  # the rows each eigen-solver call received

    def counted(*gram):
        solved.append(len(gram[0]))
        return solver(*gram)

    gaussian._eigvalsh_nu = counted
    try:
        got = gaussian.min_symplectic_eig(blocks, np.array(list(CUTS.values())))
    finally:
        gaussian._eigvalsh_nu = solver
    errors = np.array([[float(abs(nu - want) / want)
                        for nu, signs in zip(row, CUTS.values())
                        for want in [reference(pair, signs)]]
                       for pair, row in zip(blocks, got)])
    print(f"{name}: {len(blocks)} states, {errors.size} rows, {sum(solved)} by eigvalsh; "
          "relative error of nu_min against 50 digits:")
    print(f"{'':20s} {'worst':>9s} {'99th pct':>9s} {'median':>9s}")
    for row, column in [*zip(CUTS, errors.T), ("all", errors.ravel())]:
        worst, p99, median = column.max(), np.percentile(column, 99), np.median(column)
        print(f"{row:20s} {worst:9.2e} {p99:9.2e} {median:9.2e}")
    return errors.max()


def main() -> int:
    status = 0
    for name, points in (("point_stream", point_stream_points()), ("presets", preset_points())):
        worst = check(name, accepted_blocks(points))
        if worst > WORST_BOUND:
            print(f"error: {name}: worst relative error {worst:.2e} exceeds {WORST_BOUND:.0e}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
