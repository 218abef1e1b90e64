"""Graph construction, parsing and serialization.

Vertices are dense integer indices 0..p-1 and edges are unordered index
pairs, so labelings can be plain arrays indexed by vertex. Everything here
is immutable after construction and safe to share across worker processes.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

# graph6's limit, and the most vertices any graph here may have
MAX_ORDER = 258_047


class GraphError(ValueError):
    """Malformed graph data or unparseable graph text."""


def as_int(x, error: type[ValueError] = ValueError) -> int:
    """``x`` as an int where operator.index takes it and it is no bool, else
    ``error``: int() would truncate 1.9, parse "1" and take True as 1."""
    try:
        if not isinstance(x, bool):
            return operator.index(x)
    except TypeError:
        pass
    raise error(f"{x!r} is not an integer")


class Record:
    """Immutable record: ``__slots__`` names the fields in constructor order,
    ``__init__`` checks its arguments, ``_init`` sets them, unpickling rechecks."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self._values() == other._values() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Graph(Record):
    """Simple undirected graph on vertices 0..order-1.

    Edges are stored canonically: endpoints sorted within each pair and the
    pairs sorted overall, so two graphs are equal iff they have the same
    vertex count and edge set. Loops and repeated edges are rejected, and
    so are orders past MAX_ORDER. Disconnected graphs are fine.
    """

    __slots__ = ("order", "edges")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]] = ()):
        order = as_int(order, GraphError)
        if order < 0:
            raise GraphError("vertex count must be non-negative")
        if order > MAX_ORDER:
            raise GraphError(f"orders beyond {MAX_ORDER} are not supported, got {order}")
        seen = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not two endpoints") from None
            u, v = as_int(u, GraphError), as_int(v, GraphError)
            if not (0 <= u < order and 0 <= v < order):
                raise GraphError(f"edge {(u, v)} out of range for order {order}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
        self._init(order, tuple(sorted(seen)))

    @property
    def size(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.order
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.order)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def to_json_dict(self) -> dict:
        return {"order": self.order, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json_dict(data: dict) -> "Graph":
        try:
            return Graph(data["order"], tuple(data["edges"]))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad graph JSON: {exc}") from exc


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Vertex degrees as a multiset, sorted descending."""
    return tuple(sorted(g.degrees(), reverse=True))


def make_cycle(n: int) -> Graph:
    """Cycle graph C_n on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise GraphError(f"cycle length must be >= 3, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def make_two_cycle(m: int, n: int) -> Graph:
    """Two cycles of lengths m and n sharing exactly one vertex (vertex 0).

    The result has order m+n-1, size m+n, one vertex of degree 4 and the
    rest of degree 2.
    """
    if m < 3 or n < 3:
        raise GraphError(f"cycle lengths must be >= 3, got ({m}, {n})")
    return make_cactus(CactusSpec((m, n), ((0, 0),)))


class CactusSpec(Record):
    """Blueprint for a connected graph whose blocks are all cycles.

    ``cycle_lengths[i]`` is the length of the i-th cycle. For each cycle
    after the first, ``attachments[i-1] = (c, pos)`` glues it to vertex
    position ``pos`` of the already-built cycle ``c`` (positions count
    around that cycle as constructed, position 0 being its own cut vertex
    when it has one). Several cycles may share a cut vertex.
    """

    __slots__ = ("cycle_lengths", "attachments")

    def __init__(self, cycle_lengths: tuple[int, ...],
                 attachments: tuple[tuple[int, int], ...] = ()):
        if not cycle_lengths:
            raise GraphError("cactus spec needs at least one cycle")
        for length in cycle_lengths:
            if length < 3:
                raise GraphError(f"cycle length must be >= 3, got {length}")
        if len(attachments) != len(cycle_lengths) - 1:
            raise GraphError(
                f"need {len(cycle_lengths) - 1} attachments for "
                f"{len(cycle_lengths)} cycles, got {len(attachments)}"
            )
        for i, (c, pos) in enumerate(attachments, start=1):
            if not 0 <= c < i:
                raise GraphError(f"cycle {i} attaches to {c}, not an earlier cycle")
            if not 0 <= pos < cycle_lengths[c]:
                raise GraphError(f"position {pos} out of range on cycle {c}")
        Graph(sum(cycle_lengths) - len(attachments))  # within MAX_ORDER
        self._init(cycle_lengths, attachments)


def make_cactus(spec: CactusSpec) -> Graph:
    """Build the graph described by a CactusSpec.

    Order is sum(lengths) - (number of cycles - 1): each attachment merges
    exactly one vertex.
    """
    cycles: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    next_vertex = 0
    for i, length in enumerate(spec.cycle_lengths):
        if i == 0:
            ring = list(range(length))
            next_vertex = length
        else:
            c, pos = spec.attachments[i - 1]
            shared = cycles[c][pos]
            ring = [shared] + list(range(next_vertex, next_vertex + length - 1))
            next_vertex += length - 1
        cycles.append(ring)
        edges.extend((ring[j], ring[(j + 1) % length]) for j in range(length))
    return Graph(next_vertex, tuple(edges))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union, relabeling each component's vertices after the last."""
    order = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + order, v + order) for u, v in g.edges)
        order += g.order
    return Graph(order, tuple(edges))


def degseq_4_2_realizations(order: int) -> list[tuple[str, Graph]]:
    """All graphs of the given order with degree sequence (4, 2, 2, ..., 2),
    as (description, graph) pairs.

    These are exactly the two-cycles-sharing-a-vertex graphs of that order
    plus their disjoint unions with extra cycles. Intended for small orders
    only (the count grows with the partitions of the leftover vertices).
    """
    if order < 5:
        return []
    out: list[tuple[str, Graph]] = []
    for base_order in range(5, order + 1):
        rest = order - base_order
        for tail in _cycle_partitions(rest):
            # base two-cycle uses m+n = base_order+1 vertices before merging
            for m in range(3, base_order + 1):
                n = base_order + 1 - m
                if n < m:
                    break
                parts = [make_two_cycle(m, n)] + [make_cycle(c) for c in tail]
                name = f"C({m},{n})" + "".join(f"+C{c}" for c in tail)
                out.append((name, disjoint_union(*parts)))
    return out


def _cycle_partitions(total: int, minimum: int = 3) -> list[tuple[int, ...]]:
    """Nondecreasing partitions of ``total`` into parts >= minimum (cycle sizes)."""
    if total == 0:
        return [()]
    if total < minimum:
        return []
    found = []
    for first in range(minimum, total + 1):
        for rest in _cycle_partitions(total - first, first):
            found.append((first,) + rest)
    return found


# --- graph text ---------------------------------------------------------
#
# '#' starts a comment and blank lines are skipped. An edge list is its
# vertex count p, then one 0-based edge "u v" per line; graph6 is one line.

def _lines(text: str):
    """(line number, content) for each line that holds more than a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


def parse_edge_list(text: str) -> Graph:
    order = None
    edges = []
    for lineno, line in _lines(text):
        fields = line.split()
        if order is None:
            try:
                order = int(line)
            except ValueError as exc:
                raise GraphError(f"line {lineno}: expected vertex count, got {line!r}") from exc
            continue
        if len(fields) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer endpoint in {line!r}") from exc
        edges.append((u, v))
    if order is None:
        raise GraphError("empty edge-list input")
    return Graph(order, tuple(edges))


def format_edge_list(g: Graph) -> str:
    lines = [str(g.order)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# --- graph6 format ------------------------------------------------------
#
# Standard graph6: optional ">>graph6<<" header, then N(n), then the upper
# triangle of the adjacency matrix in column-major bit order, 6 bits per
# printable byte, offset 63.

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    lines = [line for _, line in _lines(text)]
    if len(lines) > 1:
        raise GraphError(f"graph6 input holds more than one graph ({len(lines)} lines)")
    s = lines[0] if lines else ""
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphError("empty graph6 input")
    data = [ord(ch) - 63 for ch in s]
    if any(x < 0 or x > 63 for x in data):
        raise GraphError("graph6 byte out of range")
    if data[0] <= 62:
        n, body = data[0], data[1:]
    elif data[1:2] == [63]:
        raise GraphError(f"graph6 orders beyond {MAX_ORDER} are not supported")
    elif len(data) < 4:
        raise GraphError("truncated graph6 order header: '~' takes 3 more bytes")
    else:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError(f"graph6 body length {len(body)} wrong for order {n}")
    bits = []
    for x in body:
        bits.extend((x >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, tuple(edges))


def to_graph6(g: Graph) -> str:
    n = g.order
    if n <= 62:
        prefix = [n]
    else:
        prefix = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    adj = set(g.edges)
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        body.append(x)
    return "".join(chr(x + 63) for x in prefix + body)


def read_graph(text: str) -> Graph:
    """Graph6 if the first content line starts with the header's '>' or a
    data byte, '?' to '~'; else an edge list, whose order int() parses."""
    first = next(_lines(text), (0, " "))[1]
    return (parse_graph6 if ">" <= first[0] <= "~" else parse_edge_list)(text)


_FORMATS = ("edge-list", "graph6")


def parse_graph(text: str, fmt: str) -> Graph:
    """Parse a graph from text in the named format ('edge-list' or 'graph6')."""
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    raise GraphError(f"unknown graph format {fmt!r} (expected one of {_FORMATS})")


def serialize_graph(g: Graph, fmt: str) -> str:
    if fmt == "edge-list":
        return format_edge_list(g)
    if fmt == "graph6":
        return to_graph6(g)
    raise GraphError(f"unknown graph format {fmt!r} (expected one of {_FORMATS})")
