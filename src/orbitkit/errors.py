"""Exception types shared across the package.

Every error that encodes a mathematical failure carries enough context
(a witness) to reproduce the violation by hand.

Each error derives from one of two bases, which fix how the command line
treats it: a CheckFailure is a verification predicate that came out
false (a FAIL entry in a report, exit 1), an InputRejected is an input or
requested regime that cannot be used (exit 2).  DomainMismatch, a misuse
of the library, derives from OrbitkitError alone and exits 1.
"""


class OrbitkitError(Exception):
    """Base class for all package errors."""


class CheckFailure(OrbitkitError):
    """A verification check failed."""


class InputRejected(OrbitkitError):
    """The input, or the regime it asks for, is unusable."""


# -- series layer -------------------------------------------------------------

class InputBoundViolation(InputRejected):
    """A series handed to the solver misses its regime's valuation floor."""


class OutputBoundViolation(CheckFailure):
    """A solved component misses the guaranteed output valuation bound."""


class LinearSystemInconsistent(CheckFailure):
    """The degree-n linear step of the solver has no solution."""


# -- finite Lie rings ---------------------------------------------------------

class WellDefinednessViolation(InputRejected):
    """Structure constants incompatible with the coordinate moduli."""


class JacobiViolation(InputRejected):
    """Jacobi identity fails on a basis triple."""


class RegimeViolation(InputRejected):
    """Ring admits neither the class < p nor the uniform evaluation regime."""


class AutomorphismCheckFailed(CheckFailure):
    """Conjugation by a generator is not linear, or its matrix is not
    exp(ad) of the generator."""


class IntegerHeadroomExceeded(InputRejected):
    """Ring arithmetic at the working modulus could overflow int64."""


class EvaluationNotIntegral(InputRejected):
    """A Lie-series coefficient cannot be reduced modulo the ring's moduli."""


class PropertyFailed(CheckFailure):
    """A verified map property (sum rule, bijectivity, conjugacy) failed."""


class SubringNotClosed(InputRejected):
    """Generators span a sublattice that is not closed under the bracket."""


# -- harmonic analysis ---------------------------------------------------------

class DomainMismatch(OrbitkitError):
    """Functions over different domains (or the wrong kind) were combined."""


# -- orbits and characters ----------------------------------------------------

class StabilityCheckFailed(CheckFailure):
    """The basis exponentials do not generate G, or the class partition they
    close is not one of G."""


class PartitionFailure(CheckFailure):
    """The dual-partition cover is not disjoint or not exhaustive."""


class UnexpectedFailure(CheckFailure):
    """A convolution identity failed where the support hypothesis holds."""


class DegenerateSpectrum(CheckFailure):
    """Class-matrix eigenvalues stayed clustered through every retry."""


class ValidationFailed(CheckFailure):
    """A computed character table fails the orthogonality relations."""


class NoMatching(CheckFailure):
    """No perfect bijection between orbit characters and table rows."""


# -- p-adic layer ---------------------------------------------------------------

class AssertionFailed(CheckFailure):
    """A certified lattice-chain property failed; carries property and witness."""


class EquivalenceFailed(CheckFailure):
    """The two sides of the restriction predicate disagree on some pair."""
