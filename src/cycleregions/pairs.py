"""The segment-pair classification of a drawing with integer corners.

Segment i of an n-cycle joins corner i to corner (i+1) mod n. One pass
over the n(n-1)/2 segment pairs, in integer arithmetic only, decides each
pair: disjoint, a proper crossing, a touch or a collinear overlap, and
whether corner i lies inside segment j or corner j inside segment i. Each
proper crossing is kept as its exact parameter along each of its two
segments, which orders every segment's chain of crossings and finds the
crossings that share a point, without building a point. The table also
owns the splitter rule: a segment of an n-cycle is a splitter when it
meets all n - 1 others, a one-off splitter when it meets n - 2. The rule
holds where every pair meets at most once, so `splitters_defined` is
false when a segment collapses or two segments overlap; `arrangement`
and `render` both read that one property.

This module imports no other module of the package and no `fractions`,
so a caller with integer corners, such as the random search, classifies
a drawing without loading `embedding`.
"""

from typing import NamedTuple, Optional, Sequence


class PairClasses(NamedTuple):
    """What one pass over a drawing's segment pairs finds.

    coincident: (corner index, corner index) pairs at one point
    incidences: sorted (corner index, cycle index of a non-incident
                segment whose interior contains that corner)
    overlaps:   (cycle index, cycle index) pairs sharing a
                positive-length sub-segment
    ties:       (crossing id, crossing id) pairs at one point of a
                segment, so at a point where three or more segments cross
    meets:      how many other segments each segment meets
    chains:     chains[i] lists the ids of segment i's proper crossings
                from corner i toward corner i+1
    signs:      signs[c] is the sign of cross(u_i, u_j) for the directions
                u_i, u_j of the segments i < j of crossing c

    Crossing ids follow pair order: crossing c is the c-th properly
    crossing pair (i, j), i < j, in lexicographic order. meets, chains and
    signs are None, and the other three empty, when adjacent corners
    coincide, since a collapsed segment has no pairs. The splitter
    properties, with n = len(meets), are read only when `splitters_defined`.
    """

    coincident: tuple[tuple[int, int], ...]
    incidences: tuple[tuple[int, int], ...]
    overlaps: tuple[tuple[int, int], ...]
    ties: tuple[tuple[int, int], ...]
    meets: Optional[tuple[int, ...]]
    chains: Optional[tuple[tuple[int, ...], ...]]
    signs: Optional[tuple[int, ...]]

    @property
    def degenerate(self) -> bool:
        """Whether the drawing is out of general position: true exactly
        when coincident, incidences, overlaps or ties is non-empty."""
        return bool(self.coincident or self.incidences or self.overlaps or self.ties)

    @property
    def splitters_defined(self) -> bool:
        """Whether the splitter classes are defined: no segment collapses
        to a point and no two segments overlap, so each pair meets at
        most once and `meets` counts the segments each one meets."""
        return self.meets is not None and not self.overlaps

    @property
    def splitters(self) -> tuple[bool, ...]:
        """Per segment, whether it meets all n - 1 others: a splitter."""
        return tuple(m == len(self.meets) - 1 for m in self.meets)

    @property
    def splitter_count(self) -> int:
        """How many segments are splitters."""
        return sum(self.splitters)

    @property
    def one_off_count(self) -> int:
        """How many segments meet exactly n - 2 others."""
        return self.meets.count(len(self.meets) - 2)


def classify_pairs(corners: Sequence[tuple[int, int]]) -> PairClasses:
    """Classify the segment pairs of the cycle through the integer
    corners, in cycle order.

    One pass over the pairs (i, j), i < j, decides each pair, touches and
    collinear overlaps included, and whether corner i lies inside segment j
    or corner j inside segment i, from the table of orientations and, for
    collinear pairs, a projection on segment i's direction.
    """
    pts = tuple(corners)
    n = len(pts)
    coincident = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if pts[i] == pts[j]
    )
    # Coinciding adjacent corners collapse a segment entirely; nothing
    # further can be measured, so report just the coincidences.
    if any((j - i) % n in (1, n - 1) for i, j in coincident):
        return PairClasses(coincident, (), (), (), None, None, None)

    # side[s][k] = cross(corner s, corner s+1, corner k): its sign tells
    # which side of segment s's line corner k lies on.
    side = []
    for s in range(n):
        ax, ay = pts[s]
        bx, by = pts[(s + 1) % n]
        ux, uy = bx - ax, by - ay
        side.append([ux * (y - ay) - uy * (x - ax) for x, y in pts])

    # Corner k is where segment k starts, so the pair {k, s} alone decides
    # whether corner k lies inside segment s.
    incidences = []
    overlaps = []
    signs: list[int] = []
    # along[s] holds (a, q, c) for each crossing c at a/q of the way along
    # segment s from corner s, with 0 < a < q.
    along: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    meets = [0] * n
    for i in range(n):
        si = side[i]
        on_i = along[i]
        i1 = (i + 1) % n
        ax, ay = pts[i]
        ux, uy = pts[i1][0] - ax, pts[i1][1] - ay
        for j in range(i + 1, n):
            d1 = si[j]
            d2 = si[(j + 1) % n]
            if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
                continue
            if d1 or d2:
                d3 = side[j][i]
                d4 = side[j][i1]
                if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
                    continue
                # The lines differ and neither segment lies strictly on one side
                # of the other's line, so they meet: inside both when all four
                # signs are strict, else in a touch. Segment j's line crosses
                # segment i at d3/(d3-d4) along it, segment i's line crosses
                # segment j at d1/(d1-d2), and d2 - d1 = cross(u_i, u_j).
                if d1 and d2 and d3 and d4:
                    c = len(signs)
                    on_i.append((d3, d3 - d4, c) if d3 > 0 else (-d3, d4 - d3, c))
                    if d1 > 0:
                        along[j].append((d1, d1 - d2, c))
                        signs.append(-1)
                    else:
                        along[j].append((-d1, d2 - d1, c))
                        signs.append(1)
                # A touch where one segment's corner is strictly inside the
                # other: corner j on segment i's line with corners i and i+1
                # strictly apart across segment j's line, or the reverse.
                elif d1 == 0 and d3 and d4:
                    incidences.append((j, i))
                elif d3 == 0 and d1 and d2:
                    incidences.append((i, j))
            else:
                # Segment j lies on segment i's line, whose span along u_i is
                # [0, u_i.u_i]. A gap is disjoint, one point a touch, more an
                # overlap. Corner j is at tj along it and corner i at 0.
                uu = ux * ux + uy * uy
                tj, tk = ((x - ax) * ux + (y - ay) * uy for x, y in (pts[j], pts[(j + 1) % n]))
                lo = max(0, min(tj, tk))
                hi = min(uu, max(tj, tk))
                if lo > hi:
                    continue
                if lo < hi:
                    overlaps.append((i, j))
                if 0 < tj < uu:
                    incidences.append((j, i))
                if min(tj, tk) < 0 < max(tj, tk):
                    incidences.append((i, j))
            meets[i] += 1
            meets[j] += 1

    # Two distinct fractions a/q in one list, whose q are at most qmax,
    # differ by at least 1/qmax^2, so shifting a left by twice qmax's bit
    # length and flooring by q keeps their order and their ties: an exact
    # integer key for the order along the segment.
    chains = []
    ties = []
    for on in along:
        shift = 2 * max([q for _, q, _ in on], default=0).bit_length()
        keyed = sorted(((a << shift) // q, c) for a, q, c in on)
        chains.append(tuple(c for _, c in keyed))
        for m in range(1, len(keyed)):
            if keyed[m][0] == keyed[m - 1][0]:
                ties.append((keyed[m - 1][1], keyed[m][1]))
    return PairClasses(
        coincident,
        tuple(sorted(incidences)),
        tuple(overlaps),
        tuple(ties),
        tuple(meets),
        tuple(chains),
        tuple(signs),
    )
