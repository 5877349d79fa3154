"""Integer partitions and the valley diagrams indexing residue subspaces.

A diagram for a partition (l_1 >= l_2 >= ...) of n is an ordered list of
rows, one per part, whose label sequences are strictly decreasing down to
a minimum (the pivot) and strictly increasing after it; the labels across
all rows are exactly {1..n}.  Equal-length rows in different orders count
as different diagrams, which is compensated by the 1/(m_1! m_2! ...)
multiplicity factors in the moment formula.

Each diagram encodes a chain of substitutions: a label at distance k to
the left of its pivot m maps to q^k z_m, a label at distance k >= 1 to the
right maps to q^{k-1} / z_m, and pivots stay free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

Partition = Tuple[int, ...]

# label -> (qexp, pivot, vpow): the monomial q^qexp * z_pivot^vpow
SubstitutionMap = Dict[int, Tuple[int, int, int]]


def partitions_of(n: int) -> List[Partition]:
    """All partitions of n, each once, in reverse lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def gen(remaining: int, maxpart: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for k in range(min(remaining, maxpart), 0, -1):
            for tail in gen(remaining - k, k):
                yield (k,) + tail

    return list(gen(n, n))


def multiplicity_factor(lam: Partition) -> int:
    """m_1! m_2! ... for the partition."""
    out = 1
    for part in set(lam):
        out *= math.factorial(lam.count(part))
    return out


@dataclass(frozen=True)
class Diagram:
    """Rows of labels, each strictly decreasing to its pivot then increasing."""

    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        labels = [lab for row in self.rows for lab in row]
        n = len(labels)
        if sorted(labels) != list(range(1, n + 1)):
            raise ValueError("row labels must partition {1..n}")
        lengths = [len(r) for r in self.rows]
        if any(b > a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("row lengths must be weakly decreasing")
        for row in self.rows:
            p = row.index(min(row))
            if any(row[j] <= row[j + 1] for j in range(p)):
                raise ValueError(f"row {row} not strictly decreasing before its minimum")
            if any(row[j] >= row[j + 1] for j in range(p, len(row) - 1)):
                raise ValueError(f"row {row} not strictly increasing after its minimum")

    @classmethod
    def _trusted(cls, rows: Tuple[Tuple[int, ...], ...]) -> "Diagram":
        """A diagram from rows that are valid by construction, not re-checked."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "rows", rows)
        return diagram

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def pivots(self) -> Tuple[int, ...]:
        """Free labels, one per row (the row minima)."""
        return tuple(min(row) for row in self.rows)


def _valley_orders(content: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All 2^{s-1} valley orderings of a label set: split non-minima left/right."""
    content = sorted(content)
    pivot, others = content[0], content[1:]
    s = len(others)
    for mask in range(1 << s):
        left = [others[j] for j in range(s) if (mask >> j) & 1]
        right = [others[j] for j in range(s) if not (mask >> j) & 1]
        yield tuple(sorted(left, reverse=True)) + (pivot,) + tuple(sorted(right))


def _row_contents(labels: List[int], lam: Partition,
                  dedupe_equal_rows: bool) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    if not lam:
        yield ()
        return
    size = lam[0]
    for block in itertools.combinations(labels, size):
        rest = [u for u in labels if u not in block]
        for tail in _row_contents(rest, lam[1:], dedupe_equal_rows):
            if dedupe_equal_rows and tail and len(tail[0]) == size and min(tail[0]) < min(block):
                continue
            yield (block,) + tail


def _diagrams(lam: Partition, dedupe_equal_rows: bool) -> Iterator[Diagram]:
    """Rows of weakly decreasing lengths lam whose contents partition {1..n},
    each in a valley order: valid diagrams by construction."""
    if any(b > a for a, b in zip(lam, lam[1:])) or any(p < 1 for p in lam):
        raise ValueError(f"not a partition: {lam}")
    n = sum(lam)
    orders: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for contents in _row_contents(list(range(1, n + 1)), tuple(lam), dedupe_equal_rows):
        for c in contents:
            if c not in orders:
                orders[c] = list(_valley_orders(c))
        for rows in itertools.product(*[orders[c] for c in contents]):
            yield Diagram._trusted(rows)


def enumerate_diagrams(lam: Sequence[int]) -> List[Diagram]:
    """Every diagram for the partition, in a deterministic canonical order.

    Row contents are assigned in lexicographic combination order and the
    left subsets by bitmask, so runs are reproducible.
    """
    return list(_diagrams(tuple(lam), dedupe_equal_rows=False))


def canonical_diagrams(lam: Sequence[int]) -> List[Diagram]:
    """One representative per unordered diagram structure.

    Equal-length rows are forced into increasing order of their minima.
    Every ordered diagram arises from exactly one representative by
    permuting equal-length rows, so summing integrals over canonical
    diagrams equals the full ordered sum divided by m_1! m_2! ...
    """
    return list(_diagrams(tuple(lam), dedupe_equal_rows=True))


def count_diagrams(lam: Sequence[int]) -> int:
    """Closed-form diagram count n!/(prod l_i!) * prod 2^{l_i - 1}."""
    lam = tuple(lam)
    n = sum(lam)
    out = math.factorial(n)
    for part in lam:
        out //= math.factorial(part)
        out *= 1 << (part - 1)
    return out


def substitution_map(diagram: Diagram) -> SubstitutionMap:
    """Final variable assignment encoded by a diagram: `substitution_steps`
    composed backwards from the pivots.

    A step z_label = q^qe z_v^s whose v is already mapped to q^qe2
    z_pivot^s2 gives z_label = q^(qe + s qe2) z_pivot^(s s2).  So a
    distance-k-left label maps to q^k z_pivot, a distance-k-right label to
    q^{k-1} z_pivot^{-1}, and pivots to themselves.
    """
    out: SubstitutionMap = {pivot: (0, pivot, +1) for pivot in diagram.pivots}
    for label, (qe, v, s) in reversed(substitution_steps(diagram)):
        qe2, pivot, s2 = out[v]
        out[label] = (qe + s * qe2, pivot, s * s2)
    return out


def substitution_steps(diagram: Diagram) -> List[Tuple[int, Tuple[int, int, int]]]:
    """Sequential residue substitutions, outermost-in per row.

    Each step consumes one variable at a monomial in a still-alive
    variable: left-segment labels at q * z_next, right-segment labels at
    q * z_previous, and the first label right of the pivot at 1/z_pivot.
    """
    steps: List[Tuple[int, Tuple[int, int, int]]] = []
    for row in diagram.rows:
        p = row.index(min(row))
        for j in range(p):
            steps.append((row[j], (1, row[j + 1], +1)))
        for j in range(len(row) - 1, p + 1, -1):
            steps.append((row[j], (1, row[j - 1], +1)))
        if p < len(row) - 1:
            steps.append((row[p + 1], (0, row[p], -1)))
    return steps
