"""Exception types shared across the package."""


class CtIdentError(Exception):
    """Base class for errors raised by this package."""


class UnstableSystem(CtIdentError):
    """An operation that requires asymptotic stability received or produced an unstable model.

    Raised for an unstable model given to an L2 norm, and for a
    relative-degree projection whose model is unstable.
    """


class NonPrincipalLog(CtIdentError):
    """The discrete-to-continuous map is ambiguous or undefined for this model.

    Raised as such when sampling the principal pole logarithms fails to
    reproduce the denominator; a pole on the closed negative real axis
    raises the subclass :class:`NegativeRealPole`.
    """


class NegativeRealPole(NonPrincipalLog):
    """A discrete-time pole lies on the closed negative real axis (origin included).

    Its principal logarithm does not exist or gives no real continuous-time
    system, so the model has no real preimage under zero-order hold;
    Monte Carlo drivers record such runs as failures.
    """


class SingularMap(CtIdentError):
    """The zero-order-hold numerator map cannot be inverted for this sampling period."""


class DegenerateMap(CtIdentError):
    """The sampling map or its Jacobian is not finite at the requested point.

    Raised when the matrix exponential behind the Jacobian overflows, for
    parameters far too large for the sampling period.
    """


class UnstablePredictor(CtIdentError):
    """Sensitivity filtering requires a stable predictor denominator."""


class DivergedUnstable(CtIdentError):
    """The iterate left the stability region and damping could not restore descent."""


class SingularInformation(CtIdentError):
    """The information matrix is numerically singular (data not informative enough)."""


class RankDeficientRegression(CtIdentError):
    """A linear regression matrix does not have full column rank."""


class SingularCovariance(CtIdentError):
    """A covariance matrix is not invertible to working precision."""


class NotPositiveDefinite(CtIdentError):
    """A matrix that must be positive (semi)definite failed factorization or its sign test.

    Also raised for a Gramian whose Lyapunov equation is singular to
    working precision, so that it could not be computed as a definite matrix.
    """


class UnsupportedRegisterLength(CtIdentError):
    """No feedback tap entry is available for the requested register length."""


class AliasedFrequency(CtIdentError):
    """A requested sinusoid lies at or above the Nyquist frequency."""
