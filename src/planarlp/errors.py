"""Exception types shared across the toolkit."""


class PlanarLPError(Exception):
    """Base class for every error raised by planarlp."""


# --- data validation ---------------------------------------------------------

class NonFiniteEntry(PlanarLPError):
    """A coordinate or coefficient is NaN or infinite."""


class ZeroVector(PlanarLPError):
    """An operation needed a nonzero vector and got (0, 0)."""


class ZeroRow(PlanarLPError):
    """A constraint row has a1 = a2 = 0."""


class EmptyConstraintList(PlanarLPError):
    """The program has no constraint rows at all."""


class ZeroObjective(PlanarLPError):
    """The objective vector is (0, 0); there is nothing to maximize."""


# --- solving -----------------------------------------------------------------

class Infeasible(PlanarLPError):
    """No point satisfies every constraint."""


class UnboundedRegion(PlanarLPError):
    """The feasible region has a nonzero recession direction."""


class Unbounded(PlanarLPError):
    """The objective can be made arbitrarily large over the region."""


class DegenerateRegion(PlanarLPError):
    """The feasible set collapses to a segment or a single point, or its
    computed corners make no convex polygon."""


class DegenerateOptimum(PlanarLPError):
    """Two or more vertices tie for the optimum; the stable set of gradient
    directions is a single angle rather than an open interval."""

    def __init__(self, message, tied_vertices=(), stable_angle=None):
        super().__init__(message)
        self.tied_vertices = tuple(tied_vertices)
        self.stable_angle = stable_angle


# --- region / geometry lookups ----------------------------------------------

class VertexNotInRegion(PlanarLPError):
    """The given point does not match any vertex of the region."""


class CoincidentVertices(PlanarLPError):
    """Two vertices of a corner triple coincide within the merge tolerance."""


class ReflexVertex(PlanarLPError):
    """The corner triple is not convex in counterclockwise order."""


class PointOnLine(PlanarLPError):
    """The point lies on the objective's zero line; the ratio is undefined."""


class NegativeCoefficient(PlanarLPError):
    """The operation requires a componentwise-nonnegative objective."""


class NonPositiveAlpha(PlanarLPError):
    """Translation step alpha must be strictly positive."""


class RotationOutsideStableCone(PlanarLPError):
    """The requested gradient rotation leaves the stable cone."""


# --- sweep oracle ------------------------------------------------------------

class VertexNeverOptimal(PlanarLPError):
    """No sweep sample made the given vertex the strict argmax."""


class GridTooCoarse(PlanarLPError):
    """Every sweep sample made the given vertex the strict argmax, so the
    grid cannot bracket the ends of its cone."""


# --- text format -------------------------------------------------------------

class LPSyntaxError(PlanarLPError):
    """A line of the LP text format could not be parsed."""

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MissingObjective(PlanarLPError):
    """The LP text contains no 'maximize:' line."""


class NoConstraints(PlanarLPError):
    """The LP text contains a header but no constraint rows."""
