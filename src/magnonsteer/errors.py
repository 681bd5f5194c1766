"""Exception types shared across the package."""


class MagnonSteerError(Exception):
    """Base class for all package-specific errors."""


class UnstableDrift(MagnonSteerError):
    """No steady state was accepted at this point.

    Carries the largest drift eigenvalue real part in ``max_real_part`` and
    the check that rejected the point in ``reason``: "gate" if the drift is
    not safely Hurwitz-stable, "residual" if its steady state failed the
    residual bound.
    """

    def __init__(self, max_real_part: float, reason: str = "gate"):
        self.max_real_part = max_real_part
        self.reason = reason
        what = ("drift matrix is not Hurwitz-stable" if reason == "gate"
                else "steady-state solve failed the residual bound")
        super().__init__(f"{what} (max eigenvalue real part {max_real_part:.6e})")


class SingularSystem(MagnonSteerError):
    """The steady-state linear system is rank-deficient or ill-conditioned."""


class NonPositiveInput(MagnonSteerError):
    """A matrix that must be positive definite is not."""


class SingularBlock(MagnonSteerError):
    """A block that must be inverted is numerically singular.

    ``gaussian.covariance_blocks`` also raises it for a covariance outside
    the scale it accepts, where the squares of the inverse blocks would
    leave the double range; every 6x6 reader goes through it.
    """


class NotPhaseCovariant(MagnonSteerError):
    """A covariance couples the x' and p' quadratures, so its blocks do not split."""


class DegenerateDenominator(MagnonSteerError):
    """Closed-form covariance denominator vanished (stability boundary), or a term is not finite."""


class UnknownPreset(MagnonSteerError):
    """Requested sweep preset id does not exist."""


class NoCrossing(MagnonSteerError):
    """The scanned measure does not cross zero inside the sweep window.

    It is positive at both ends of the window, or zero at both.
    """


class NonMonotone(MagnonSteerError):
    """The scanned measure is not monotone-to-zero inside the sweep window."""


class SpecError(MagnonSteerError):
    """Invalid sweep specification or parameter document."""
