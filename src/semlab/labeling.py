"""Vertex labelings, edge sums, and super edge-magic certificates.

A vertex labeling is a bijection V -> {1..p} stored as a length-p sequence
indexed by vertex. A labeling is *extendable* when its multiset of edge
endpoint sums consists of q distinct consecutive integers; it then extends
uniquely to a super edge-magic labeling with valence p + q + min(sums),
each edge uv taking label k - f(u) - f(v).

The valence arithmetic that the obstructions and the solver share lives
here too, in the last section.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .graphs import Graph, as_int


class LabelingError(ValueError):
    """Invalid labeling data for the given graph."""


def check_vertex_labeling(g: Graph, labels: Sequence[int]) -> None:
    """Raise unless ``labels`` is a bijection from vertices onto {1..p}."""
    p = g.order
    if len(labels) != p:
        raise LabelingError(f"expected {p} vertex labels, got {len(labels)}")
    if sorted(labels) != list(range(1, p + 1)):
        raise LabelingError(f"vertex labels must be a bijection onto 1..{p}")


def edge_sums(g: Graph, labels: Sequence[int]) -> tuple[int, ...]:
    """Endpoint-label sums, one per edge, in the graph's edge order."""
    check_vertex_labeling(g, labels)
    return tuple(labels[u] + labels[v] for u, v in g.edges)


def is_extendable(sums: Sequence[int]) -> bool:
    """True iff the sums are q distinct consecutive integers (vacuous at q=0)."""
    q = len(sums)
    if q == 0:
        return True
    return len(set(sums)) == q and max(sums) - min(sums) == q - 1


def complement_labeling(labels: Sequence[int]) -> tuple[int, ...]:
    """The dual labeling v -> p+1-f(v); preserves extendability."""
    p = len(labels)
    return tuple(p + 1 - x for x in labels)


class SemLabeling(NamedTuple):
    """A full super edge-magic labeling: the checkable certificate.

    ``edge_labels`` holds (u, v, label) triples covering every edge once;
    vertex and edge labels together use each of 1..p+q exactly once and
    f(u) + f(v) + f(uv) equals ``valence`` on every edge.
    """

    vertex_labels: tuple[int, ...]
    edge_labels: tuple[tuple[int, int, int], ...]
    valence: int

    def to_json_dict(self) -> dict:
        return {"vertex_labels": list(self.vertex_labels),
                "edge_labels": [list(t) for t in self.edge_labels],
                "valence": self.valence}

    @staticmethod
    def from_json_dict(data: dict) -> "SemLabeling":
        try:
            return SemLabeling(
                tuple(as_int(x) for x in data["vertex_labels"]),
                tuple((as_int(u), as_int(v), as_int(w))
                      for u, v, w in data["edge_labels"]),
                as_int(data["valence"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LabelingError(f"bad certificate JSON: {exc}") from exc


def extend_to_sem(g: Graph, labels: Sequence[int]) -> SemLabeling:
    """Extend an extendable vertex labeling to a full labeling.

    The valence is forced to p + q + min(sums) and each edge label to
    k - f(u) - f(v). Rejects non-extendable labelings and edgeless graphs
    (the valence is undefined without edges).
    """
    sums = edge_sums(g, labels)
    if not sums:
        raise LabelingError("cannot extend a labeling of an edgeless graph")
    if not is_extendable(sums):
        raise LabelingError("edge sums are not q distinct consecutive integers")
    p, q = g.order, g.size
    k = p + q + min(sums)
    edge_labels = tuple((u, v, k - labels[u] - labels[v]) for u, v in g.edges)
    got = sorted(lab for _, _, lab in edge_labels)
    if got != list(range(p + 1, p + q + 1)):
        raise AssertionError(f"edge labels {got} are not p+1..p+q")
    would_be = valence_of(g, labels)
    if would_be != k:
        raise AssertionError(f"valence_of gives {would_be}, extension forces {k}")
    return SemLabeling(tuple(labels), edge_labels, k)


# verify_sem first-failure reason codes
REASON_VERTEX_PART = "vertex labels not a bijection onto 1..p"
REASON_EDGE_SET = "edge labels do not cover the graph's edges"
REASON_LABEL_UNION = "labels not a bijection onto 1..p+q"
REASON_VALENCE = "non-constant valence"


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_sem(g: Graph, cert: SemLabeling) -> VerifyResult:
    """Check every certificate invariant against g; first failure wins."""
    p, q = g.order, g.size
    if len(cert.vertex_labels) != p or sorted(cert.vertex_labels) != list(range(1, p + 1)):
        return VerifyResult(False, REASON_VERTEX_PART)
    cert_edges = [(u, v) if u < v else (v, u) for u, v, _ in cert.edge_labels]
    if sorted(cert_edges) != sorted(g.edges) or len(cert.edge_labels) != q:
        return VerifyResult(False, REASON_EDGE_SET)
    all_labels = sorted(list(cert.vertex_labels) + [lab for _, _, lab in cert.edge_labels])
    if all_labels != list(range(1, p + q + 1)):
        return VerifyResult(False, REASON_LABEL_UNION)
    for u, v, lab in cert.edge_labels:
        if cert.vertex_labels[u] + cert.vertex_labels[v] + lab != cert.valence:
            return VerifyResult(False, REASON_VALENCE)
    return VerifyResult(True)


# --- valence arithmetic ----------------------------------------------------

def valence_of(g: Graph, labels: Sequence[int]) -> Fraction:
    """The would-be valence (sum of deg(v)*f(v) plus all edge labels, over q).

    Defined for any bijection; an exact rational. Equals the integer
    valence of extend_to_sem whenever the labeling is extendable.
    """
    q = g.size
    if q == 0:
        raise LabelingError("valence undefined for an edgeless graph")
    check_vertex_labeling(g, labels)
    weighted = sum(d * x for d, x in zip(g.degrees(), labels))
    return Fraction(weighted + edge_label_total(g.order, q), q)


def dual_valence(p: int, q: int, k: int) -> int:
    """Valence of the complement labeling: k and its dual sum to 4p+q+3."""
    return 4 * p + q + 3 - k


def edge_label_total(p: int, q: int) -> int:
    """Sum of the edge labels p+1..p+q of any super edge-magic labeling."""
    return q * p + q * (q + 1) // 2


def rearrangement_extremes(degrees: Sequence[int]) -> tuple[int, int]:
    """Exact (min, max) of sum(deg(v) * g(v)) over all label bijections g.

    Pairing the sorted degrees against opposite-sorted labels minimizes the
    weighted sum; same-sorted maximizes it.
    """
    if not degrees:
        raise ValueError("need at least one degree")
    labels = range(1, len(degrees) + 1)
    lo = sum(d * i for d, i in zip(sorted(degrees, reverse=True), labels))
    hi = sum(d * i for d, i in zip(sorted(degrees), labels))
    return lo, hi


class ValenceInterval(NamedTuple):
    """Integer interval [ceil(min), floor(max)] of would-be valences."""

    lo: int
    hi: int
    min_s: Fraction
    max_s: Fraction

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def values(self) -> list[int]:
        return [] if self.empty else list(range(self.lo, self.hi + 1))

    def to_json(self) -> list[int]:
        return [] if self.empty else [self.lo, self.hi]


def sem_interval(g: Graph) -> ValenceInterval:
    """Endpoints of the integer valence window for g (exact rationals kept)."""
    p, q = g.order, g.size
    if q == 0:
        raise ValueError("valence interval undefined for an edgeless graph")
    lo_num, hi_num = rearrangement_extremes(g.degrees())
    total = edge_label_total(p, q)
    min_s = Fraction(lo_num + total, q)
    max_s = Fraction(hi_num + total, q)
    return ValenceInterval(math.ceil(min_s), math.floor(max_s), min_s, max_s)
