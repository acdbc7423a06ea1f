"""Exception hierarchy shared across the package.

Every error an instance can cause (a bad file, an infeasible or
malformed instance, an exhausted search budget) derives from
:class:`DcsError`, so callers (including the CLI) can tell them apart
without string matching.  Bad argument values to library functions
raise plain ValueError or TypeError instead; the classes below that are
also ValueErrors keep ``except ValueError`` callers working.
"""


class DcsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DcsError):
    """A .dcs text stream could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotUtf8(ParseError):
    pass


class MalformedHeader(ParseError):
    pass


class MalformedEdgeLine(ParseError):
    pass


class EdgeOutOfRange(ParseError):
    pass


class SelfLoop(ParseError):
    pass


class DuplicateEdge(ParseError):
    pass


class FrameIndexOutOfRange(DcsError, IndexError):
    pass


class VertexOutOfRange(DcsError, ValueError):
    """A solution names a vertex outside the graph's vertex range."""


class NotSingleFrame(DcsError, ValueError):
    """An operation defined on one graph was given a multi-frame sequence."""


class EmptySolution(DcsError):
    """A vertex set used as a solution must be nonempty."""


class KOrderOutOfRange(DcsError):
    """KMA order k exceeds the number of frames."""


class BudgetExceeded(DcsError):
    """An exact search would exceed its enumeration budget."""


class InfeasibleFrame(DcsError):
    """A frame is disconnected, so no common spanning subgraph exists."""


class Uncoverable(DcsError):
    """A covering instance admits no cover (malformed input)."""


class DomainMismatch(DcsError):
    """A fractional solution's variables do not match the graph's vertices/edges."""


class NoSuperedges(DcsError):
    """A MinRep instance without superedges cannot be reduced."""


class CompleteGraph(DcsError):
    """The independent-set reduction excludes complete input graphs."""


class NotUniform(DcsError):
    """Hyperedges must all have the same arity."""


class EdgeNotInUnion(DcsError):
    """An edge solution refers to an edge absent from the union edge set."""
