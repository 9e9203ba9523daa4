"""Exception types shared across the package.

InternalError subclasses mark conditions that indicate a bug (they are
asserted never to fire on valid input); everything else reports a problem
with the caller's input or with a verification that genuinely fails.
"""


class MacprodError(Exception):
    pass


class DivisionByZero(MacprodError, ZeroDivisionError):
    """Division by the zero rational function."""


class NonCyclotomicDenominator(MacprodError):
    """A denominator neither univariate nor a product of Phi_d(q^a t^b)."""


class SpecializationPole(MacprodError):
    """A substitution sent a reduced denominator to zero."""


class IndexOutOfRange(MacprodError, IndexError):
    """A row/column/variable index outside the declared range."""


class DivergentTrace(MacprodError):
    """A geometric trace sum with ratio 1 (no damping k-power)."""


class NotDyck(MacprodError):
    """Word is not a Dyck word in the raising/lowering letters."""


class CutoffTooSmall(MacprodError):
    """Truncated state space cannot absorb the requested check margin."""


class NotAPartition(MacprodError):
    """Weakly decreasing nonnegative parts were required."""


class LengthMismatch(MacprodError):
    """Compositions of different lengths (or sizes) were compared."""


class NotRaisable(MacprodError):
    """raise_E called at a position i with lambda_i >= lambda_{i+1}."""


class BranchResolutionFailure(MacprodError):
    """The candidate of a raising move failed the eigenvalue check or
    vanished at the target monomial."""


class SingularSystem(MacprodError):
    """Exact linear solve hit a structurally singular system."""


class NoSolution(MacprodError):
    """Eigenfunction linear system has no solution on the given support."""


class NonUnique(MacprodError):
    """Eigenfunction linear system has a >1-dimensional solution space."""


class ReducibleChain(MacprodError):
    """Markov generator does not have a one-dimensional null space."""


class InternalError(MacprodError, AssertionError):
    """Conditions that must never occur; reaching one is a bug."""


class InternalNonDivisibility(InternalError):
    """Divided-difference numerator was not divisible by x_i - x_{i+1}."""


class InternalNonPolynomial(InternalError):
    """Normalized trace sum failed homogeneity/monicity sanity checks."""
