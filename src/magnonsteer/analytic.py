"""Closed-form steady-state covariance of the feedback-coupled three-mode system.

Independent oracle for the numeric steady-state solver: the six distinct
covariance entries are rational functions of the damping rates, couplings and
bath noise powers, obtained by solving the steady-state condition
Q V + V Q^T = -D symbolically once and hard-coding the result. Each entry is
linear in the three bath noise powers (d_c, d_q, d_m), so the same
coefficients serve every diffusion mode; the mode enters only through
``derive``'s feedback damping ``k_fb`` and cavity noise weight ``w_c``.

All rates are scaled by kappa_c before evaluation: the raw coefficient
polynomials reach eighth order in rates of magnitude ~1e7 rad/s and would
needlessly stress double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDenominator
from .gaussian import x_block_matrix
from .model import DerivedQuantities, SystemParams, derive

DENOMINATOR_TOL = 1e-12


def analytic_covariance(
    params: SystemParams, derived: DerivedQuantities | None = None
) -> np.ndarray:
    """The 6x6 steady-state covariance from the closed forms.

    ``gaussian.x_block_matrix`` writes it from the six entries of V_x.

    Raises
    ------
    DegenerateDenominator
        If the shared denominator vanishes (parameters on the stability
        boundary, where no steady state exists), or the denominator or an
        entry is not finite: a term overflows (rates whose ratios to
        kappa_c square beyond the double range, such as kappa_m = 1e300),
        or an input already is (the infinite magnon occupation of
        B0 = 1e-320).
    """
    d = derived or derive(params)
    scale = params.kappa_c
    gam = params.gamma_q / scale
    k_m = params.kappa_m / scale
    k_fb = d.k_fb / scale
    g_q = params.g_q / scale
    g_m = d.g_m_eff / scale

    d_c = d.w_c * (1.0 + 2.0 * d.N_c)
    d_q = gam * (1.0 + 2.0 * d.N_q)
    d_m = k_m * (1.0 + 2.0 * d.N_m)

    gm2, gq2 = g_m * g_m, g_q * g_q

    den = 2.0 * (gam * gm2 - (gq2 + gam * k_fb) * k_m) * (
        gq2 * (gam + k_fb) + (k_fb + k_m) * (-gm2 + (gam + k_fb) * (gam + k_m))
    )
    if abs(den) <= DENOMINATOR_TOL:
        raise DegenerateDenominator(
            "closed-form denominator vanished; parameters sit on the stability boundary"
        )

    # recurring factors
    f1 = -gam * gm2 + k_m * (gq2 + (gam + k_m) * (k_fb + k_m))
    f2 = gam * ((gam + k_fb) * (gam + k_m) - gm2) + gq2 * k_m
    f3 = gam + k_fb + k_m

    v11 = (
        -(gam * (gm2 * gm2)
          + (gq2 + gam * (gam + k_fb)) * k_m * (gq2 + (gam + k_m) * (k_fb + k_m))
          - gm2 * (gam * gam * gam + gq2 * (gam + k_m) + gam * k_m * (gam + k_m)
                   + gam * k_fb * (gam + 2.0 * k_m))) * d_c
        - gq2 * f1 * d_q
        - gm2 * f2 * d_m
    ) / den

    v14 = (
        gam * g_q * f1 * d_c
        + g_q * (gm2 * (gam + k_m) * (k_fb + k_m)
                 - k_fb * k_m * (gq2 + (gam + k_m) * (k_fb + k_m))) * d_q
        + gam * g_q * gm2 * f3 * d_m
    ) / den

    v16 = (
        g_m * k_m * f2 * d_c
        + gq2 * g_m * k_m * f3 * d_q
        + g_m * (k_fb * f2 + gam * gq2 * f3) * d_m
    ) / den

    v33 = (
        -gq2 * f1 * d_c
        - (gq2 * gq2 * k_m
           + (k_fb + k_m) * (-gm2 + k_fb * k_m) * (-gm2 + (gam + k_fb) * (gam + k_m))
           + gq2 * (gm2 * (k_m - gam)
                    + k_m * (k_fb * (2.0 * gam + k_fb) + (gam + k_fb) * k_m + k_m * k_m))) * d_q
        - gq2 * gm2 * f3 * d_m
    ) / den

    v35 = (
        g_q * g_m * (-gam * gm2 + k_m * (gq2 + gam * (gam + 2.0 * k_fb + k_m))) * d_c
        + g_q * g_m * (gq2 * k_m + gm2 * (k_fb + k_m) - k_fb * k_m * (k_fb + k_m)) * d_q
        + g_q * g_m * (gq2 * (gam + k_fb) + gam * (gm2 + k_fb * (gam + k_fb))) * d_m
    ) / den

    v66 = (
        -gm2 * f2 * d_c
        - gm2 * gq2 * f3 * d_q
        + (-gq2 * gq2 * (gam + k_fb)
           + gam * (-gm2 + (gam + k_fb) * (gam + k_m)) * (gm2 - k_fb * (k_fb + k_m))
           + gq2 * (gm2 * (k_m - gam)
                    - (gam + k_fb) * (2.0 * gam * k_fb + (gam + k_fb) * k_m + k_m * k_m))) * d_m
    ) / den

    # V_x on x' = (X_c, Y_q, Y_m); V_p on p' is its mirror
    # Python floats overflow to inf, and inf - inf is NaN, without an exception
    if not all(map(math.isfinite, (den, v11, v14, v16, v33, v35, v66))):
        raise DegenerateDenominator("closed-form terms overflow at these rates, or an input is infinite")
    return x_block_matrix([[v11, v14, v16], [v14, v33, -v35], [v16, -v35, v66]])
