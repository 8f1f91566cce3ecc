"""Compact distance sets and the metric machinery built on them.

A finite distance set splits into blocks at its jump numbers (values more
than doubled by their successor).  Compactness ties the block structure to
actual distance gaps, which makes metric triples classifiable by block
pattern alone, forces the 4-values condition, and powers three
constructions implemented here: the strong amalgamation of spanned metric
spaces, the star transform squeezing a multi-block space into a one-block
spectrum, and the quotient recovery inverting it.

All arithmetic is exact; the predicates here are equality-sensitive and
floating point would corrupt them.  A :class:`DistanceSet` multiplies its
values once, on construction, by the least common multiple of their
denominators, which makes every value an integer.  Each test made here is
homogeneous and linear in the values (the order, the triangle inequality,
``2v < next`` for jumps, ``|x-y| <= s1`` for compactness), so a positive
common factor changes no answer, and the inner loops run on those integers,
on value-to-position lookups and on the block number of each position.
``fractions.Fraction`` appears only at the boundary: input parsing
(:func:`_frac`), JSON I/O and the public fields and return values, which are
the original rationals.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .structures import TAG_SYMMETRIC, FinStructure, Signature


class MetricError(ValueError):
    """A metric-space construction invariant is violated."""


class IntegrityError(MetricError):
    """Input data contradicts the structural assumptions of an operation."""


def _frac(x) -> Fraction:
    """An exact rational from a Fraction, an int or a string such as
    ``"3/2"``; floats, bools and malformed strings raise MetricError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise MetricError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class DistanceSet:
    """A strictly increasing tuple of nonnegative rationals starting at 0.

    ``_scaled`` holds the values times ``_lcm``, the least common multiple
    of their denominators, and ``_of`` the block number of each position: a
    block ends at each value that is less than half its successor, and the
    trivial block ``(0,)`` is block 0.  All three are functions of
    ``values``: equality compares ``values`` alone, and the hash is taken
    over the integers, since hashing the rationals costs each one a modular
    inverse.
    """

    values: tuple[Fraction, ...]
    _lcm: int = field(init=False, repr=False, compare=False)
    _scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = self.values
        if not all(isinstance(v, Fraction) for v in vals):
            raise MetricError("distance set values must be Fractions")
        ratios = [v.as_integer_ratio() for v in vals]
        lcm = math.lcm(*[den for _, den in ratios])
        scaled = tuple([num * (lcm // den) for num, den in ratios])
        if not scaled or scaled[0] != 0:
            raise MetricError("distance set must start at 0")
        if any(b <= a for a, b in zip(scaled, scaled[1:])):
            raise MetricError("distance set must be strictly increasing")
        of = [0]
        for a, b in zip(scaled, scaled[1:]):
            of.append(of[-1] + (2 * a < b))
        object.__setattr__(self, "_lcm", lcm)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_of", tuple(of))

    def __hash__(self) -> int:
        return hash((self._lcm, self._scaled))

    @staticmethod
    def make(values: Iterable) -> "DistanceSet":
        return DistanceSet(tuple(_frac(v) for v in values))

    def _position(self, x: Fraction) -> int | None:
        """Index of the value ``x`` in the set, or None if it is no member."""
        num, den = x.as_integer_ratio()
        q, r = divmod(num * self._lcm, den)
        i = bisect.bisect_left(self._scaled, q)
        if r or i == len(self._scaled) or self._scaled[i] != q:
            return None
        return i

    def __contains__(self, x) -> bool:
        return self._position(_frac(x)) is not None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def positive(self) -> tuple[Fraction, ...]:
        return self.values[1:]

    @property
    def s1(self) -> Fraction:
        if len(self.values) < 2:
            raise MetricError("no positive values in distance set")
        return self.values[1]

    @cached_property
    def _compactness(self) -> tuple[bool, tuple[Fraction, Fraction] | None]:
        """:func:`is_compact`'s verdict: the first failing pair in
        ``combinations_with_replacement`` order, if any."""
        ints, of = self._scaled, self._of
        for i, j in itertools.combinations_with_replacement(range(1, len(ints)), 2):
            if (ints[j] - ints[i] <= ints[1]) != (of[i] == of[j]):
                return False, (self.values[i], self.values[j])
        return True, None


@dataclass(frozen=True)
class BlockPartition:
    """Jump numbers and the block intervals they delimit.

    The first block is always the trivial ``(0,)``; every other block is a
    maximal run of values ending at a jump.
    """

    jumps: tuple[Fraction, ...]
    blocks: tuple[tuple[Fraction, ...], ...]


@lru_cache(maxsize=None)
def blocks(s: DistanceSet) -> BlockPartition:
    out: list[list[Fraction]] = [[] for _ in range(s._of[-1] + 1)]
    for v, b in zip(s.values, s._of):
        out[b].append(v)
    return BlockPartition(tuple(blk[-1] for blk in out), tuple(map(tuple, out)))


def _block_numbers(s: DistanceSet, name: str, *values) -> list[int]:
    """Block numbers of the positive ``values`` of ``s``."""
    at = [s._position(_frac(v)) for v in values]
    if None in at or 0 in at:  # the value 0 is position 0
        values = [_frac(v) for v in values]
        if min(values) <= 0:
            raise MetricError(f"{name} is defined on positive values only")
        missing = next(v for v, i in zip(values, at) if i is None)
        raise MetricError(f"{missing} is not a member of the distance set")
    return [s._of[i] for i in at]


def approx(s: DistanceSet, x, y) -> bool:
    """Same-block relation on positive values."""
    bx, by = _block_numbers(s, "approx", x, y)
    return bx == by


def ll(s: DistanceSet, x, y) -> bool:
    """Strictly-earlier-block relation on positive values."""
    bx, by = _block_numbers(s, "ll", x, y)
    return bx < by


def is_metric_triple(a, b, c) -> bool:
    """The three triangle inequalities on positive values."""
    (an, ad), (bn, bd), (cn, cd) = (_frac(v).as_integer_ratio() for v in (a, b, c))
    # the same inequalities times the positive common denominator ad*bd*cd
    a, b, c = an * bd * cd, bn * ad * cd, cn * ad * bd
    if a <= 0 or b <= 0 or c <= 0:
        raise MetricError("metric triples consist of positive values")
    return a + b >= c and b + c >= a and c + a >= b


def is_compact(s: DistanceSet) -> tuple[bool, tuple[Fraction, Fraction] | None]:
    """Check ``|x-y| <= s1  iff  same block`` over all positive pairs.

    The forward direction holds for every distance set; a counterexample
    pair, when one exists, witnesses the reverse failing.  The verdict is
    computed once per set and kept on it.
    """
    if len(s) < 2:
        raise MetricError("compactness needs at least one positive value")
    return s._compactness


EQUILATERAL = "equilateral-block"
ISOSCELES = "isosceles-jump"
NON_METRIC = "non-metric"


def classify_triple(s: DistanceSet, a, b, c) -> str:
    """Block-pattern classification of a sorted positive triple.

    On a compact distance set this agrees with :func:`is_metric_triple` on
    every triple: all three in one block, or the least strictly below the
    equal blocks of the other two, are the metric patterns.
    """
    compact, _ = is_compact(s)
    if not compact:
        raise MetricError("classification requires a compact distance set")
    # block numbers grow with the values, so sorting them sorts the triple
    ia, ib, ic = sorted(_block_numbers(s, "classify_triple", a, b, c))
    if ia == ib == ic:
        return EQUILATERAL
    if ia < ib == ic:
        return ISOSCELES
    return NON_METRIC


def check_4values(s: DistanceSet
                  ) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Brute-force the 4-values condition over all positive quadruples.

    For every (a, b, c, d) joined by some p (both (a,b,p) and (c,d,p)
    metric), some q must join the cross pairs (a,c,q) and (b,d,q).  The
    positive p making (a,b,p) metric are those with ``|a-b| <= p <= a+b``,
    a run of consecutive positions, kept as a bitmask over p.
    """
    pos = s._scaled[1:]
    m = len(pos)
    joined = [[0] * m for _ in range(m)]  # bitmask over p of is_metric_triple
    for i, a in enumerate(pos):
        for j, b in enumerate(pos):
            lo = bisect.bisect_left(pos, abs(a - b))
            hi = bisect.bisect_right(pos, a + b)
            joined[i][j] = (1 << hi) - (1 << lo)
    # (i, j, k, l) in lexicographic order, so the first failure is reported
    for i, row_i in enumerate(joined):
        for j, row_j in enumerate(joined):
            for k, row_k in enumerate(joined):
                for l in range(m):
                    premise = row_i[j] & row_k[l]
                    if premise and not row_i[k] & row_j[l]:
                        p = (premise & -premise).bit_length() - 1
                        vals = s.positive
                        return False, (vals[i], vals[j], vals[k], vals[l], vals[p])
    return True, None


# ---------------------------------------------------------------------------
# finite metric spaces


@dataclass(frozen=True)
class FinMetricSpace:
    """A finite point set with an exact-rational metric whose spectrum lies
    in a declared distance set.

    ``_at`` holds the position of each distance in the declared set, which
    the order and block tests use in place of the rationals.
    """

    dset: DistanceSet
    d: tuple[tuple[Fraction, ...], ...]
    _at: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.d)
        if any(len(row) != n for row in self.d):
            raise MetricError("distance matrix must be square")
        position = self.dset._position
        at = tuple(tuple(position(v) for v in row) for row in self.d)
        for i in range(n):
            for j in range(n):
                p = at[i][j]
                # None marks a distance outside the set: compare those exactly
                if p != at[j][i] or (p is None and self.d[i][j] != self.d[j][i]):
                    raise MetricError(f"matrix not symmetric at ({i},{j})")
                if (p == 0) != (i == j):
                    raise MetricError(f"zero distance exactly on the diagonal ({i},{j})")
                if p is None:
                    raise MetricError(f"distance {self.d[i][j]} outside declared set")
        scaled = self.dset._scaled
        w = [[scaled[p] for p in row] for row in at]
        for i, j, k in itertools.combinations(range(n), 3):
            if (w[i][j] + w[j][k] < w[i][k] or w[i][j] + w[i][k] < w[j][k]
                    or w[i][k] + w[j][k] < w[i][j]):
                raise MetricError(f"triangle inequality fails on ({i},{j},{k})")
        object.__setattr__(self, "_at", at)

    @staticmethod
    def make(dset, matrix: Sequence[Sequence]) -> "FinMetricSpace":
        ds = dset if isinstance(dset, DistanceSet) else DistanceSet.make(dset)
        return FinMetricSpace(ds, tuple(tuple(_frac(v) for v in row)
                                        for row in matrix))

    @property
    def size(self) -> int:
        return len(self.d)

    def spectre(self) -> set[Fraction]:
        return {v for row in self.d for v in row}

    def restrict(self, points: Sequence[int]) -> "FinMetricSpace":
        pts = list(points)
        return FinMetricSpace(self.dset, tuple(
            tuple(self.d[x][y] for y in pts) for x in pts))


def enumerate_isometric_embeddings(m1: FinMetricSpace, m2: FinMetricSpace
                                   ) -> tuple[tuple[int, ...], ...]:
    """All distance-preserving injections, in lexicographic order."""
    n1, n2 = m1.size, m2.size
    out: list[tuple[int, ...]] = []
    assignment: list[int] = []

    def extend(v: int) -> None:
        if v == n1:
            out.append(tuple(assignment))
            return
        for w in range(n2):
            if w in assignment:
                continue
            if all(m1.d[v][u] == m2.d[w][assignment[u]] for u in range(v)):
                assignment.append(w)
                extend(v + 1)
                assignment.pop()

    extend(0)
    return tuple(out)


def are_isometric(m1: FinMetricSpace, m2: FinMetricSpace
                  ) -> tuple[bool, tuple[int, ...] | None]:
    if m1.size != m2.size:
        return False, None
    for f in enumerate_isometric_embeddings(m1, m2):
        return True, f
    return False, None


def sim_partition(m: FinMetricSpace) -> tuple[tuple[int, ...], ...]:
    """Classes of the small-distance relation (distance in the trivial or
    first block), ordered by least member.

    Transitivity is a consequence of the declared set's block structure for
    valid inputs; it is verified rather than assumed, and a violation is
    reported as data corruption.
    """
    of = m.dset._of

    def sim(x: int, y: int) -> bool:
        return of[m._at[x][y]] <= 1

    classes: list[list[int]] = []
    for x in range(m.size):
        for cls in classes:
            if sim(cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    for cls in classes:
        for x, y in itertools.combinations(cls, 2):
            if not sim(x, y):
                raise IntegrityError("similarity relation is not transitive; "
                                     "input is not a valid space over this set")
    for c1, c2 in itertools.combinations(classes, 2):
        if sim(c1[0], c2[0]):
            raise IntegrityError("similarity classes not mutually separated")
    return tuple(tuple(cls) for cls in classes)


def _class_of(classes: Sequence[Sequence[int]]) -> dict[int, int]:
    """Each point of ``classes`` mapped to the index of its class."""
    return {x: ci for ci, cls in enumerate(classes) for x in cls}


def spans(l: FinMetricSpace, m: FinMetricSpace) -> tuple[int, ...] | None:
    """First transversal of m's similarity classes isometric to ``l``.

    ``l`` must live over the declared set with the first nontrivial block
    removed.  Returns one point per class (in class order) or None.
    """
    s = m.dset
    if s._of[-1] < 1:
        raise MetricError("span requires at least one nontrivial block")
    if any(p is not None and s._of[p] == 1 for p in map(s._position, l.spectre())):
        raise MetricError("spanning space uses distances from the first block")
    classes = sim_partition(m)
    if len(classes) != l.size:
        return None
    for transversal in itertools.product(*classes):
        if are_isometric(m.restrict(transversal), l)[0]:
            return transversal
    return None


# ---------------------------------------------------------------------------
# strong amalgamation over a spanning space


def _require_compact_two_blocks(s: DistanceSet, what: str) -> None:
    """The shared precondition of amalgamation and the star transform."""
    compact, _ = is_compact(s)
    if not compact:
        raise MetricError(f"{what} requires a compact distance set")
    if s._of[-1] < 2:
        raise MetricError(f"{what} requires at least two nontrivial blocks")


def sap_amalgamate_metL(m: FinMetricSpace, mp: FinMetricSpace,
                        mpp: FinMetricSpace, f: Sequence[int],
                        g: Sequence[int], l: FinMetricSpace
                        ) -> tuple[FinMetricSpace, tuple[int, ...], tuple[int, ...]]:
    """Strong amalgamation of spanned spaces over their common part.

    ``f`` and ``g`` embed ``m`` isometrically into ``mp`` and ``mpp``; all
    three spaces must be spanned by ``l``.  New cross distances are the
    spanning distances between the corresponding class representatives when
    the classes differ, and the least positive value when they coincide.
    Returns the amalgam with the two inclusion maps; the construction
    verifies metric validity, isometry of the inclusions, exactness of the
    overlap, and that ``l`` still spans the result.
    """
    s = m.dset
    _require_compact_two_blocks(s, "amalgamation")
    if mp.dset != s or mpp.dset != s:
        raise MetricError("all spaces must share one declared distance set")
    f = tuple(f)
    g = tuple(g)
    _check_isometric_map(m, mp, f, "f")
    _check_isometric_map(m, mpp, g, "g")

    transversal = spans(l, m)
    if transversal is None:
        raise MetricError("the spanning space does not span the shared part")
    classes_p = sim_partition(mp)
    classes_pp = sim_partition(mpp)
    k = len(transversal)
    if len(classes_p) != k or len(classes_pp) != k:
        raise MetricError("the spanning space does not span both sides")

    # align both class lists with the shared transversal
    index_p, index_pp = _class_of(classes_p), _class_of(classes_pp)
    if any(f[a] not in index_p or g[a] not in index_pp for a in transversal):
        raise IntegrityError("image point escaped every similarity class")
    align_p = [index_p[f[a]] for a in transversal]
    align_pp = [index_pp[g[a]] for a in transversal]
    if sorted(align_p) != list(range(k)) or sorted(align_pp) != list(range(k)):
        raise MetricError("transversal images do not hit every class once")
    class_of_p = _class_of([classes_p[ci] for ci in align_p])
    class_of_pp = _class_of([classes_pp[ci] for ci in align_pp])

    # amalgam points: all of mp, then mpp's points outside g(m)
    g_image = {g[a]: a for a in range(m.size)}
    into_p = tuple(range(mp.size))
    fresh = itertools.count(mp.size)
    into_pp = tuple(f[g_image[x]] if x in g_image else next(fresh)
                    for x in range(mpp.size))
    size = mp.size + mpp.size - m.size

    s1 = s.s1
    tdist = [[Fraction(0)] * size for _ in range(size)]
    label_to_pp = {lab: x for x, lab in enumerate(into_pp)}

    def base_dist(x: int, y: int) -> Fraction:
        if x < mp.size and y < mp.size:
            return mp.d[x][y]
        px, py = label_to_pp.get(x), label_to_pp.get(y)
        if px is not None and py is not None:
            return mpp.d[px][py]
        # x < y and every point from mp.size up is on the second side, so
        # x is new on the first side and y new on the second
        ci, cj = class_of_p[x], class_of_pp[py]
        if ci != cj:
            return m.d[transversal[ci]][transversal[cj]]
        return s1

    for x in range(size):
        for y in range(x + 1, size):
            v = base_dist(x, y)
            tdist[x][y] = v
            tdist[y][x] = v

    amalgam = FinMetricSpace(s, tuple(tuple(row) for row in tdist))

    _check_isometric_map(mp, amalgam, into_p, "inclusion of the first side")
    _check_isometric_map(mpp, amalgam, into_pp, "inclusion of the second side")
    shared = {into_p[f[a]] for a in range(m.size)}
    if set(into_p) & set(into_pp) != shared:
        raise IntegrityError("image overlap is not exactly the shared part")
    if spans(l, amalgam) is None:
        raise IntegrityError("the spanning space no longer spans the amalgam")
    return amalgam, into_p, into_pp


def _check_injection(mapping: Sequence[int], domain: int, codomain: int,
                     label: str) -> None:
    """``mapping`` must send each of ``domain`` points to its own point of
    ``range(codomain)``; checked before any use of it as an index."""
    if len(mapping) != domain or len(set(mapping)) != domain:
        raise MetricError(f"{label}: not an injection on the whole domain")
    if not all(isinstance(v, int) and 0 <= v < codomain for v in mapping):
        raise MetricError(f"{label}: maps outside the {codomain} points of its target")


def _check_isometric_map(src: FinMetricSpace, dst: FinMetricSpace,
                         mapping: Sequence[int], label: str) -> None:
    _check_injection(mapping, src.size, dst.size, label)
    for x in range(src.size):
        for y in range(src.size):
            if src.d[x][y] != dst.d[mapping[x]][mapping[y]]:
                raise MetricError(f"{label}: not isometric at ({x},{y})")


# ---------------------------------------------------------------------------
# star transform and quotient recovery


@dataclass(frozen=True)
class SigmaChoice:
    """A one-block target spectrum for a base distance set, with the order
    bijection onto its lower part and the two extra levels: position i of
    ``base`` maps to position i of ``sigma``, and ``eps`` and ``zeta`` follow."""

    base: DistanceSet
    sigma: DistanceSet
    eps: Fraction
    zeta: Fraction


def choose_sigma(s: DistanceSet) -> SigmaChoice:
    """Deterministic one-block spectrum inside (1, 2) for a base set.

    With n+1 base values, positive targets are 1 + i/(2n+4); the two extra
    levels continue the ladder.  Any positive triple from (1, 2) is metric,
    so the result is compact with a single nontrivial block.
    """
    n = len(s) - 1
    den = 2 * n + 4
    sigma_vals = [Fraction(0)] + [1 + Fraction(i, den) for i in range(1, n + 1)]
    eps = 1 + Fraction(n + 1, den)
    zeta = 1 + Fraction(n + 2, den)
    sigma = DistanceSet(tuple(sigma_vals + [eps, zeta]))
    assert sigma._of[-1] == 1, "target spectrum must be one-block"
    compact, _ = is_compact(sigma)
    assert compact
    return SigmaChoice(s, sigma, eps, zeta)


@dataclass(frozen=True)
class StarSpace:
    """A base space together with one added point per similarity class.

    ``space`` is the transformed metric space over the one-block spectrum;
    base points keep their indices, class points follow in class order.
    """

    space: FinMetricSpace
    base_size: int
    classes: tuple[tuple[int, ...], ...]
    choice: SigmaChoice

    @property
    def class_points(self) -> tuple[int, ...]:
        return tuple(range(self.base_size, self.base_size + len(self.classes)))


def star_transform(m: FinMetricSpace, choice: SigmaChoice | None = None
                   ) -> StarSpace:
    """Adjoin one point per similarity class at a fresh level.

    Base distances map through the order bijection; each point sits at the
    first extra level from its own class point and at the second from every
    other class point; class points sit at the image of the least value of
    the block their classes' distance falls in.  Well-definedness of that
    last line is validated explicitly.
    """
    s = m.dset
    _require_compact_two_blocks(s, "star transform")
    if choice is None:
        choice = choose_sigma(s)
    elif choice.base != s:
        raise MetricError("sigma choice built for a different distance set")
    classes = sim_partition(m)
    of = s._of
    at = m._at

    # the class-to-class distance must not depend on representatives
    for c1, c2 in itertools.combinations(classes, 2):
        if len({of[at[x][y]] for x in c1 for y in c2}) != 1:
            raise IntegrityError("class distance not well defined; "
                                 "set is not compact or space is corrupt")

    n = m.size
    k = len(classes)
    class_of = _class_of(classes)
    size = n + k
    # the order bijection keeps positions: base position p maps to sigma's
    sv = choice.sigma.values
    dd = [[Fraction(0)] * size for _ in range(size)]
    for x in range(n):
        for y in range(x + 1, n):
            dd[x][y] = dd[y][x] = sv[at[x][y]]
    for x in range(n):
        for ci in range(k):
            v = choice.eps if class_of[x] == ci else choice.zeta
            dd[x][n + ci] = dd[n + ci][x] = v
    for ci in range(k):
        for cj in range(ci + 1, k):
            # the first position of a block holds its least value
            v = sv[of.index(of[at[classes[ci][0]][classes[cj][0]]])]
            dd[n + ci][n + cj] = dd[n + cj][n + ci] = v

    space = FinMetricSpace(choice.sigma, tuple(tuple(row) for row in dd))
    return StarSpace(space, n, classes, choice)


def star_embed(f: Sequence[int], star_src: StarSpace, star_dst: StarSpace
               ) -> tuple[int, ...]:
    """Lift an isometric embedding of base spaces to the star spaces.

    Base points map through ``f``; each class point maps to the class point
    of its image.  The lift is validated isometric, and it is functorial:
    lifting a composite equals composing the lifts.
    """
    if star_src.choice.sigma != star_dst.choice.sigma:
        raise MetricError("star spaces use different spectra")
    n = star_src.base_size
    f = tuple(f)
    _check_injection(f, n, star_dst.base_size, "embedding")
    dst_class_of = _class_of(star_dst.classes)
    lifted = list(f)
    for cls in star_src.classes:
        target_classes = {dst_class_of[f[x]] for x in cls}
        if len(target_classes) != 1:
            raise MetricError("map does not respect similarity classes")
        lifted.append(star_dst.base_size + target_classes.pop())
    result = tuple(lifted)
    _check_isometric_map(star_src.space, star_dst.space, result, "star lift")
    return result


def recover_quotient_space(w: FinMetricSpace, w0: Sequence[int],
                           choice: SigmaChoice
                           ) -> tuple[FinMetricSpace, tuple[int, ...]]:
    """Invert the star encoding: strip the designated class points.

    Every remaining point must be linked to exactly one class point at the
    first extra level; those links partition the remainder.  Distances pull
    back through the order bijection where spectral, fall back to the class
    representatives' pulled-back distance across classes, and flatten to
    the least positive base value within a class.  Returns the base-set
    space and the kept point labels of ``w``.

    Validated afterwards: the link partition coincides with the recovered
    space's own similarity classes, and the least block value of every
    cross-class distance agrees with the pulled-back distance of the two
    class points.  (The class points record block minima, so a literal
    span check against their restriction would reject legitimate inputs
    whose cross distances are not minimal in their blocks.)  Distances are
    compared by their positions in ``choice.sigma``.
    """
    w0 = tuple(w0)
    w0_set = set(w0)
    if len(w0_set) != len(w0) or any(not 0 <= x < w.size for x in w0):
        raise MetricError("designated class points must be distinct and in range")
    rest = tuple(x for x in range(w.size) if x not in w0_set)
    base = choice.base
    lower = len(base)  # sigma's spectral positions lie below; eps sits here
    # w may be declared over a wider set: None marks a value outside sigma
    in_sigma = [choice.sigma._position(v) for v in w.dset.values]
    at = [[in_sigma[p] for p in row] for row in w._at]
    owner: dict[int, int] = {}
    for x in rest:
        links = [i for i, u in enumerate(w0) if at[x][u] == lower]
        if len(links) != 1:
            raise IntegrityError(
                f"point {x} has {len(links)} class links; expected exactly 1")
        owner[x] = links[0]

    def cross(x: int, y: int) -> int:
        p = at[w0[owner[x]]][w0[owner[y]]]
        if p is None or p >= lower:
            raise IntegrityError("class points at a non-spectral distance")
        return p

    def pull(x: int, y: int) -> int:
        p = at[x][y]
        if p is not None and p < lower:
            return p
        return cross(x, y) if owner[x] != owner[y] else 1

    n = len(rest)
    dd = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dd[i][j] = dd[j][i] = base.values[pull(rest[i], rest[j])]
    space = FinMetricSpace(base, tuple(tuple(row) for row in dd))

    # the link partition must be the recovered space's own class structure
    position = {p: i for i, p in enumerate(rest)}
    link_classes = {frozenset(position[x] for x in rest if owner[x] == i)
                    for i in range(len(w0))}
    sim_classes = {frozenset(c) for c in sim_partition(space)}
    if link_classes != sim_classes:
        raise IntegrityError("class links disagree with the recovered "
                             "similarity classes")

    # cross-class distances must flatten to the class points' pullback;
    # the first position of a block holds its least value
    of = base._of
    for x in rest:
        for y in rest:
            if x != y and owner[x] != owner[y]:
                c = cross(x, y)
                if of.index(of[space._at[position[x]][position[y]]]) != c:
                    raise IntegrityError("cross-class distance outside the "
                                         "block its class points record")
    return space, rest


# ---------------------------------------------------------------------------
# the one-block graph encoding


def metric_to_kgraph(m: FinMetricSpace) -> FinStructure:
    """Encode a one-block space as a complete edge-colored graph.

    Pairs at the i-th value of the single nontrivial block go into the i-th
    edge relation; isometric embeddings and colored-graph embeddings are
    then literally the same maps.
    """
    if m.dset._of[-1] != 1:
        raise MetricError("graph encoding needs exactly one nontrivial block")
    # with one nontrivial block, the i-th palette value sits at position i+1
    palette = range(1, len(m.dset))
    sig = Signature.make(*[(f"E{i}", 2, TAG_SYMMETRIC) for i in palette])
    rels: list[set] = [set() for _ in palette]
    for x in range(m.size):
        for y in range(m.size):
            if x != y:
                rels[m._at[x][y] - 1].add((x, y))
    return FinStructure(sig, m.size, tuple(frozenset(r) for r in rels))


# ---------------------------------------------------------------------------
# JSON I/O


def frac_str(v: Fraction) -> str | int:
    """A distance as JSON: an int when whole, else ``"p/q"``."""
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def metric_to_dict(m: FinMetricSpace) -> dict:
    return {
        "set": [frac_str(v) for v in m.dset.values],
        "d": [[frac_str(v) for v in row] for row in m.d],
    }


def metric_from_dict(doc: dict) -> FinMetricSpace:
    if not (isinstance(doc, dict) and isinstance(doc.get("set"), list)
            and isinstance(doc.get("d"), list)
            and all(isinstance(row, list) for row in doc["d"])):
        raise MetricError('a metric space is an object with a "set" list '
                          'and a "d" list of rows')
    return FinMetricSpace.make(doc["set"], doc["d"])
