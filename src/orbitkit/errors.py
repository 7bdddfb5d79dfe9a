"""Exception types shared across the package.

Every error that encodes a mathematical failure carries enough context
(a witness) to reproduce the violation by hand.
"""


class OrbitkitError(Exception):
    """Base class for all package errors."""


# -- scalar / series layer ---------------------------------------------------

class PrimeContextMismatch(OrbitkitError):
    """Arithmetic attempted between Q(sqrt p) and Q(sqrt q) scalars, p != q."""


class InputBoundViolation(OrbitkitError):
    """A series handed to the solver misses its regime's valuation floor."""


class OutputBoundViolation(OrbitkitError):
    """A solved component misses the guaranteed output valuation bound."""


class LinearSystemInconsistent(OrbitkitError):
    """The degree-n linear step of the solver has no solution."""


# -- finite Lie rings ---------------------------------------------------------

class WellDefinednessViolation(OrbitkitError):
    """Structure constants incompatible with the coordinate moduli."""


class JacobiViolation(OrbitkitError):
    """Jacobi identity fails on a basis triple."""


class RegimeViolation(OrbitkitError):
    """Ring admits neither the class < p nor the uniform evaluation regime."""


class AutomorphismCheckFailed(OrbitkitError):
    """Ad(g) disagreed with conjugation or failed to preserve the bracket."""


class IntegerHeadroomExceeded(OrbitkitError):
    """Ring arithmetic at the working modulus could overflow int64."""


class EvaluationNotIntegral(OrbitkitError):
    """A Lie-series coefficient cannot be reduced modulo the ring's moduli."""


class PropertyFailed(OrbitkitError):
    """A verified map property (sum rule, bijectivity, conjugacy) failed."""


class SubringNotClosed(OrbitkitError):
    """Generators span a sublattice that is not closed under the bracket."""


# -- harmonic analysis ---------------------------------------------------------

class DomainMismatch(OrbitkitError):
    """Functions over different domains (or the wrong kind) were combined."""


# -- orbits and characters ----------------------------------------------------

class StabilityCheckFailed(OrbitkitError):
    """A randomized audit found an orbit or class not closed under the action."""


class PartitionFailure(OrbitkitError):
    """The dual-partition cover is not disjoint or not exhaustive."""


class UnexpectedFailure(OrbitkitError):
    """A convolution identity failed where the support hypothesis holds."""


class DegenerateSpectrum(OrbitkitError):
    """Class-matrix eigenvalues stayed clustered through every retry."""


class ValidationFailed(OrbitkitError):
    """A computed character table fails the orthogonality relations."""


class NoMatching(OrbitkitError):
    """No perfect bijection between orbit characters and table rows."""


# -- p-adic layer ---------------------------------------------------------------

class AssertionFailed(OrbitkitError):
    """A certified lattice-chain property failed; carries property and witness."""


class EquivalenceFailed(OrbitkitError):
    """The two sides of the restriction predicate disagree on some pair."""
