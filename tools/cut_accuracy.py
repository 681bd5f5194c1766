"""Check the cut pass's smallest symplectic eigenvalues against 50-digit arithmetic.

The states are the accepted steady states of the benchmark's 2,000
``point_stream`` inputs at seed 0, in the default diffusion mode and rebuilt
in the ``input_output`` mode. For each of the four sign rows of the cut pass
(the three one-versus-two partial transposes and the state itself),
``gaussian.min_symplectic_eig`` on the whole stack is compared with nu_min
from mpmath at 50 digits, where forming nu^2 as the eigenvalues of
T V_x T V_p is harmless. Prints the worst, 99th-percentile and median
relative error of each sign row and of all of them, and how many rows went
to the eigen-solver instead of the closed form.

Exits 1 if the worst relative error exceeds 1e-11.

Usage: python tools/cut_accuracy.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]  # this checkout's package and benchmark

from magnonsteer import gaussian, model  # noqa: E402
from perfbench.bench import make_inputs  # noqa: E402

SEED = 0
POINTS = 2000
DIGITS = 50
WORST_BOUND = 1e-11
CUTS = {"LN_c_qm": [-1.0, 1.0, 1.0], "LN_q_cm": [1.0, -1.0, 1.0],
        "LN_m_cq": [1.0, 1.0, -1.0], "min_symplectic_eig": [1.0, 1.0, 1.0]}


def accepted_blocks() -> np.ndarray:
    """The block pairs (n, 2, 3, 3) of the accepted inputs, default mode then input_output."""
    pairs = []
    for mode in (None, "input_output"):
        for params in make_inputs("point_stream", SEED, POINTS):
            if mode is not None:
                params = params.replace(diffusion_mode=mode)
            system = model.build_blocks(params, model.derive(params))[None]
            pairs.extend(gaussian.steady_state_blocks(system)[2])
    return np.array(pairs)


def reference(pair: np.ndarray, signs: list[float]):
    """nu_min of the block pair with T = diag(signs), to DIGITS digits."""
    with mpmath.workdps(DIGITS):
        flip = mpmath.diag([int(sign) for sign in signs])
        vx, vp = (mpmath.matrix(block.tolist()) for block in pair)
        eigenvalues = mpmath.eig(flip * vx * flip * vp, left=False, right=False)
        return min(mpmath.sqrt(mpmath.re(e)) for e in eigenvalues)


def main() -> int:
    blocks = accepted_blocks()
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
    print(f"{len(blocks)} states, {errors.size} rows, {sum(solved)} by eigvalsh; "
          "relative error of nu_min against 50 digits:")
    print(f"{'':20s} {'worst':>9s} {'99th pct':>9s} {'median':>9s}")
    for name, column in [*zip(CUTS, errors.T), ("all", errors.ravel())]:
        worst, p99, median = column.max(), np.percentile(column, 99), np.median(column)
        print(f"{name:20s} {worst:9.2e} {p99:9.2e} {median:9.2e}")
    if errors.max() > WORST_BOUND:
        print(f"error: worst relative error {errors.max():.2e} exceeds {WORST_BOUND:.0e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
