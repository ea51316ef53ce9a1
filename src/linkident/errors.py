"""Exception types raised across the library.

Everything derives from LinkIdentError so callers can catch the whole
family at once. The CLI maps these to exit code 2 with a one-line message.
"""


class LinkIdentError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(LinkIdentError):
    """Base class for graph construction and lookup problems."""


class DuplicateEdge(GraphError):
    """The same unordered node pair was given as a link twice."""


class SelfLoop(GraphError):
    """A link joins a node to itself."""


class UnknownNode(GraphError):
    """A link endpoint or query refers to a node not in the graph."""


class MonitorNotInGraph(GraphError):
    """A declared monitor is not a node of the graph."""


class MonitorsNotDistinct(GraphError):
    """The two monitors must be different nodes."""


class MonitorsUnset(GraphError):
    """An operation that needs monitors was called on a graph without them."""


class TooSmall(LinkIdentError):
    """The graph (or subgraph) is below the minimum size for the operation."""


class TooLarge(LinkIdentError):
    """The requested instance size exceeds a hard limit."""


class Disconnected(LinkIdentError):
    """The graph is not connected, so no analysis is defined."""


class NotBiconnected(LinkIdentError):
    """An operation that requires a 2-connected input got something else."""


class DecompositionError(LinkIdentError):
    """Base class for structural decomposition failures."""


class BrokenPairing(DecompositionError):
    """Virtual link bookkeeping is inconsistent (a virtual id does not
    appear in exactly two components)."""


class UnknownBlock(DecompositionError):
    """A block id does not belong to this decomposition."""


class WrongAgentCount(DecompositionError):
    """A block ended up with an agent count other than the one or two
    that a connected two-monitor instance can produce."""


class OracleError(LinkIdentError):
    """Base class for measurement-oracle failures."""


class NoPath(OracleError):
    """No simple path joins the two monitors (should imply Disconnected,
    kept separate so the oracle reports its own precondition)."""


class PathExplosion(OracleError):
    """Path enumeration exceeded the configured cap. Results are never
    computed from a truncated path set."""


class InconsistentSystem(OracleError):
    """Supplied measurement values admit no exact rational solution."""


class ParseError(LinkIdentError):
    """Input JSON is malformed or violates the graph format."""


class GenerationFailed(LinkIdentError):
    """A random-instance generator could not satisfy its constraints."""
