"""Exception types shared across the package."""


class QgldError(Exception):
    """Base class for all errors raised by this package."""


class NumericalFailure(QgldError):
    """Base class of the errors that say the numbers, not the request, failed (CLI exit 3)."""


class NonFiniteInput(QgldError):
    """An input array has NaN or infinite entries."""


class NonHermitianInput(QgldError):
    """Input matrix violates the hermiticity tolerance."""


class SingularMatrix(NumericalFailure):
    """A matrix's LU met a zero pivot, or its condition number reached the inverse's limit."""


class IndexOutOfRange(QgldError, IndexError):
    """Index outside the valid range."""


class NotInGroundRegister(QgldError):
    """A probe column has no conditioned weight (the system register never
    returns to the prepared column), or the gate-level reference circuit's
    system register is prepared from a state other than all zeros."""


class UnnormalizedTarget(QgldError):
    """Target state vector is not normalized."""


class UnnormalizedPhi(QgldError):
    """Weight vector for an outer-product direction is not normalized."""


class FamilySizeMismatch(QgldError):
    """Controlled family factors of inconsistent shapes, or a family whose
    length is not a power of two >= 2 or whose members' dimension is not
    the columns'."""


class NonUnitaryMember(QgldError):
    """A controlled-family member is not unitary within tolerance."""


class ProbabilityOutOfRange(QgldError):
    """Probabilities are outside [0, 1] or do not sum to one."""


class FlatDistribution(NumericalFailure):
    """Readout distribution has no usable peak (aliasing or wrong scale)."""


class AliasedReadout(NumericalFailure):
    """A gradient the probe may have to read lies beyond its window's readout range."""


class RoundingFloor(NumericalFailure):
    """The rounding floor of a readout at its probe scale W exceeds the
    accuracy its pipeline promises."""


class NearZeroEigenvalue(NumericalFailure):
    """All usable eigenvalues fell below the pseudo-inverse threshold."""


class IllConditioned(NumericalFailure):
    """Linear system condition estimate exceeds the supported range."""
