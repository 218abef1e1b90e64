"""Analytic non-existence certificates for super edge-magic labelings.

Each check either returns a verdict whose hypotheses verifiably hold for
the input graph, or None. Silence asserts nothing; verdicts are sound but
deliberately incomplete. All arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import Graph, degree_sequence
from .labeling import edge_label_total, sem_interval

EVEN_DEG_Q_MOD4 = "EVEN_DEG_Q_MOD4"
DEGSEQ_4_2_EVEN_ORDER = "DEGSEQ_4_2_EVEN_ORDER"
VALENCE_INTEGRALITY = "VALENCE_INTEGRALITY"


class ObstructionVerdict(NamedTuple):
    rule: str
    justification: str
    params: dict

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "params": dict(self.params)}


def check_even_degree_parity(g: Graph) -> ObstructionVerdict | None:
    """All degrees even and size == 2 (mod 4) rules out a labeling.

    Classic parity argument: summing the magic condition over all edges
    forces an impossible parity when every vertex has even degree and
    q = 2 (mod 4).
    """
    q = g.size
    degrees = g.degrees()
    if q % 4 != 2 or any(d % 2 for d in degrees):
        return None
    return ObstructionVerdict(
        EVEN_DEG_Q_MOD4,
        f"every vertex degree is even and size {q} == 2 (mod 4); "
        "no super edge-magic labeling exists",
        {"size": q, "q_mod_4": q % 4},
    )


def check_degseq_4_2_even_order(g: Graph) -> ObstructionVerdict | None:
    """Even order >= 6 with degree sequence (4, 2, ..., 2) rules out a labeling.

    Such a graph has size p+1, and for every bijection the would-be valence
    is (5p/2 + 1) + 2a/(p+1) where a is the label of the degree-4 vertex;
    2a is never a multiple of p+1, so no integer valence is achievable.
    Connectivity plays no role: only the degree sequence enters.
    """
    p = g.order
    if p < 6 or p % 2 != 0:
        return None
    if degree_sequence(g) != (4,) + (2,) * (p - 1):
        return None
    return ObstructionVerdict(
        DEGSEQ_4_2_EVEN_ORDER,
        f"even order {p} >= 6 with degree sequence (4, 2, ..., 2): the valence "
        "(5p/2 + 1) + 2a/(p+1) is non-integral for every label a of the "
        "degree-4 vertex (connectivity not required)",
        {"order": p, "size": g.size},
    )


def theorem_valence_gap(n: int, alpha: int) -> Fraction:
    """Exact would-be valence (5n^2 + 7n + 2 + 4*alpha) / (2(n+1)).

    For even n >= 6 and alpha in [1, n] this is never an integer, which is
    the arithmetic behind check_degseq_4_2_even_order; alpha plays the role
    of the degree-4 vertex's label.
    """
    if n < 6 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 6, got {n}")
    if not 1 <= alpha <= n:
        raise ValueError(f"alpha must be in [1, {n}], got {alpha}")
    return Fraction(5 * n * n + 7 * n + 2 + 4 * alpha, 2 * (n + 1))


def check_valence_integrality(g: Graph) -> ObstructionVerdict | None:
    """Verdict iff no vertex bijection yields an integer would-be valence.

    The would-be valence is (sum of deg(v)*f(v) + sum of p+1..p+q) / q.
    With at most two distinct degree values the achievable numerators are an
    affine function of the total label mass placed on the high-degree
    vertices, and subset sums of {1..p} fill a contiguous range, so
    achievability is decided exactly. With three or more distinct degrees
    only the valence interval is checked: a verdict when it is empty,
    silence otherwise rather than risk unsoundness.
    """
    p, q = g.order, g.size
    if q == 0:
        raise ValueError("valence integrality undefined for an edgeless graph")
    degrees = sorted(g.degrees(), reverse=True)
    distinct = sorted(set(degrees), reverse=True)

    if len(distinct) <= 2:
        d_hi = distinct[0]
        d_lo = distinct[-1]
        n_hi = degrees.count(d_hi) if len(distinct) == 2 else 0
        # numerator = d_lo*total + (d_hi-d_lo)*A + edge_label_total, where A
        # ranges over all sums of n_hi labels out of {1..p} (a full interval)
        a_min = n_hi * (n_hi + 1) // 2
        a_max = n_hi * (2 * p - n_hi + 1) // 2
        base = d_lo * (p * (p + 1) // 2) + edge_label_total(p, q)
        step = d_hi - d_lo
        # numerators repeat mod q with period q in A: q masses decide
        if any((base + step * a) % q == 0 for a in range(a_min, min(a_max + 1, a_min + q))):
            return None
        return ObstructionVerdict(
            VALENCE_INTEGRALITY,
            f"no placement of vertex labels makes the valence an integer: "
            f"numerators {base}+{step}*A over A in [{a_min},{a_max}] are never "
            f"divisible by size {q}",
            {"numerator_base": base, "numerator_step": step,
             "mass_range": [a_min, a_max], "size": q},
        )

    iv = sem_interval(g)
    if not iv.empty:
        return None
    return ObstructionVerdict(
        VALENCE_INTEGRALITY,
        f"no integer lies between the minimum and maximum would-be valences "
        f"{iv.min_s} and {iv.max_s}",
        {"min_valence": [iv.min_s.numerator, iv.min_s.denominator],
         "max_valence": [iv.max_s.numerator, iv.max_s.denominator]},
    )


_ALL_CHECKS = (
    check_even_degree_parity,
    check_degseq_4_2_even_order,
    check_valence_integrality,
)


def check_all(g: Graph) -> ObstructionVerdict | None:
    """First verdict from the fixed check order, or None.

    Edgeless graphs never obstruct: they are trivially labelable. Every
    graph with edges and an empty valence interval gets a verdict.
    """
    if g.size == 0:
        return None
    for check in _ALL_CHECKS:
        verdict = check(g)
        if verdict is not None:
            return verdict
    return None
