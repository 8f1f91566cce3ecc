"""Finite relational structures, embeddings, and isomorphism.

Everything downstream (arrow checks, diagrams, universal-structure audits)
is built on the types in this module; validation and completion read its
tag table.  Domains are always ``{0, ..., n-1}``; named vertices belong to
I/O layers only, which keeps hom-sets canonical and structures hashable.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


class StructureError(ValueError):
    """A structure or embedding violates a construction invariant."""


class SignatureMismatchError(StructureError):
    """Two structures that must share a signature do not."""


TAG_NONE = "none"
TAG_SYMMETRIC = "symmetric-irreflexive"
TAG_LINEAR = "linear-order"
TAG_ORIENTED = "irreflexive-antisymmetric"

# The shape of a pair x < y is FORWARD if (x, y) is present plus BACKWARD
# if (y, x) is.  Per tag, every shape valid for it, sparsest first; a
# tagged relation holds no loop.  An untagged one may, but completion opens
# only slots x < y, so no completed member carries a loop.
NONE, FORWARD, BACKWARD, BOTH = range(4)
TAG_SHAPES: Mapping[str, tuple[int, ...]] = MappingProxyType({
    TAG_NONE: (NONE, FORWARD, BACKWARD, BOTH),
    TAG_SYMMETRIC: (NONE, BOTH),
    TAG_LINEAR: (FORWARD, BACKWARD),
    TAG_ORIENTED: (NONE, FORWARD, BACKWARD),
})
_SHAPE_NAMES = ("NONE", "FORWARD", "BACKWARD", "BOTH")

VALID_TAGS = tuple(TAG_SHAPES)


@dataclass(frozen=True)
class RelationSpec:
    name: str
    arity: int
    tag: str = TAG_NONE

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise StructureError(f"relation {self.name!r}: arity must be >= 1")
        if self.tag not in VALID_TAGS:
            raise StructureError(f"relation {self.name!r}: unknown tag {self.tag!r}")
        if self.tag != TAG_NONE and self.arity != 2:
            raise StructureError(f"relation {self.name!r}: tag {self.tag!r} requires arity 2")


@dataclass(frozen=True)
class Signature:
    """An ordered list of named, tagged relation symbols."""

    relations: tuple[RelationSpec, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate relation names in signature: {names}")

    @staticmethod
    def make(*specs: tuple) -> "Signature":
        """Build a signature from ``(name, arity[, tag])`` tuples."""
        return Signature(tuple(RelationSpec(*s) for s in specs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)

    def spec(self, name: str) -> RelationSpec:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)


def _validate_tag(name: str, tag: str, size: int, tuples: frozenset[tuple[int, ...]]) -> None:
    shapes = TAG_SHAPES[tag]
    below = [0] * size
    for x, y in tuples:
        if x == y:
            raise StructureError(f"{name}: loop ({x},{y}) in {tag} relation")
        below[y] += 1
        shape = BOTH if (y, x) in tuples else FORWARD if x < y else BACKWARD
        if shape not in shapes:
            raise StructureError(f"{name}: pair ({min(x, y)},{max(x, y)}) has shape "
                                 f"{_SHAPE_NAMES[shape]}, not valid for {tag}")
    # without BOTH, each pair holds at most one tuple, so fewer tuples than
    # pairs is the only way to leave a pair empty
    if NONE not in shapes and (BOTH in shapes or len(tuples) < size * (size - 1) // 2):
        for x, y in itertools.combinations(range(size), 2):
            if (x, y) not in tuples and (y, x) not in tuples:
                raise StructureError(f"{name}: pair ({x},{y}) has shape NONE, "
                                     f"not valid for {tag}")
    # a tournament is transitive iff its in-degrees are 0, ..., size-1;
    # else some u -> v have equal in-degree, and v beats a w u does not
    if tag == TAG_LINEAR and sorted(below) != list(range(size)):
        u, v = next((u, v) for u, v in tuples if below[u] == below[v])
        w = next(w for w in range(size)
                 if (v, w) in tuples and (u, w) not in tuples)
        raise StructureError(f"{name}: order not transitive at ({u},{v},{w})")


@dataclass(frozen=True)
class FinStructure:
    """A finite relational structure over domain ``{0, ..., size-1}``.

    Construction validates the tuples against the signature and the tags.
    The package's own builders, whose output is valid by construction, pass
    ``_checked=True`` to skip that; input from outside always comes through
    a validating construction.
    """

    signature: Signature
    size: int
    relations: tuple[frozenset[tuple[int, ...]], ...]  # aligned with signature.relations
    _checked: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._checked:
            return
        if self.size < 0:
            raise StructureError("size must be nonnegative")
        if len(self.relations) != len(self.signature.relations):
            raise StructureError("relations not aligned with signature")
        for spec, tuples in zip(self.signature.relations, self.relations):
            for t in tuples:
                if len(t) != spec.arity:
                    raise StructureError(f"{spec.name}: tuple {t} has wrong arity")
                if any(not (0 <= v < self.size) for v in t):
                    raise StructureError(f"{spec.name}: tuple {t} out of range")
            if spec.tag != TAG_NONE:
                _validate_tag(spec.name, spec.tag, self.size, tuples)

    @staticmethod
    def build(signature: Signature, size: int,
              relations: dict[str, Iterable[Sequence[int]]]) -> "FinStructure":
        unknown = set(relations) - set(signature.names)
        if unknown:
            raise StructureError(f"relations not in signature: {sorted(unknown)}")
        rels = tuple(
            frozenset(tuple(t) for t in relations.get(spec.name, ()))
            for spec in signature.relations
        )
        return FinStructure(signature, size, rels)

    def rel(self, name: str) -> frozenset[tuple[int, ...]]:
        for spec, tuples in zip(self.signature.relations, self.relations):
            if spec.name == name:
                return tuples
        raise KeyError(name)

    @property
    def domain(self) -> range:
        return range(self.size)

    # The embedding search's tables, built on first use and kept with the
    # structure: what it reads of a source, and the masks it reads of a
    # target, which keeps only those.

    @cached_property
    def _point_types(self) -> tuple[list[int], list[dict[int, int]],
                                    list[tuple[int, ...]]]:
        return _sparse_types(self)

    @cached_property
    def _type_masks(self) -> tuple[dict[int, int], list[dict[int, int]],
                                   list[list[int]]]:
        """The target side of the embedding search, as bitmasks of points:
        per self type the points of that type; per point x and pair type
        the points y with (x, y) of that type, type 0 being every point but
        x that is unrelated to x; per position of the degree colour a list
        whose c-th entry, c >= 1, holds the points with count at least c
        there."""
        self_types, pair_types, colors = _sparse_types(self)
        everyone = (1 << self.size) - 1
        by_self: dict[int, int] = {}
        for x, t in enumerate(self_types):
            by_self[t] = by_self.get(t, 0) | 1 << x
        by_pair: list[dict[int, int]] = []
        for x, types in enumerate(pair_types):
            masks = {0: everyone ^ 1 << x}
            for y, t in types.items():
                masks[t] = masks.get(t, 0) | 1 << y
                masks[0] ^= 1 << y
            by_pair.append(masks)
        at_least: list[list[int]] = []
        for column in zip(*colors):
            row = [0] * (max(column) + 1)
            for x, count in enumerate(column):
                row[count] |= 1 << x
            acc = 0
            for c in range(len(row) - 1, 0, -1):
                acc |= row[c]
                row[c] = acc
            at_least.append(row)
        return by_self, by_pair, at_least

    def __repr__(self) -> str:  # compact, deterministic
        parts = ", ".join(
            f"{spec.name}={sorted(tuples)}"
            for spec, tuples in zip(self.signature.relations, self.relations)
        )
        return f"FinStructure(n={self.size}, {parts})"


@dataclass(frozen=True)
class Embedding:
    """An injective, relation-preserving-and-reflecting map between structures.

    Construction re-certifies the embedding conditions, so an ``Embedding``
    instance is always valid.
    """

    source: FinStructure
    target: FinStructure
    map: tuple[int, ...]
    _checked: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self._checked and not is_embedding(self.map, self.source, self.target):
            raise StructureError(f"map {self.map} is not an embedding")

    def __call__(self, v: int) -> int:
        return self.map[v]


def identity_embedding(a: FinStructure) -> Embedding:
    return Embedding(a, a, tuple(range(a.size)), _checked=True)


def compose(g: Embedding, f: Embedding) -> Embedding:
    """Return ``g after f``.  Targets/sources must chain."""
    if f.target is not g.source and f.target != g.source:
        raise StructureError("compose: inner target differs from outer source")
    return Embedding(f.source, g.target, tuple(g.map[v] for v in f.map), _checked=True)


def is_embedding(f: Sequence[int], a: FinStructure, b: FinStructure) -> bool:
    """Decide whether ``f`` embeds ``a`` into ``b``.

    Raises :class:`SignatureMismatchError` when the signatures differ; that
    is a distinct outcome from returning ``False``.
    """
    if a.signature != b.signature:
        raise SignatureMismatchError("is_embedding: signatures differ")
    if len(f) != a.size:
        raise StructureError("is_embedding: map not defined on the whole domain")
    if any(not (0 <= v < b.size) for v in f):
        return False
    image = set(f)
    if len(image) != a.size:
        return False
    for a_rel, b_rel in zip(a.relations, b.relations):
        mapped = {tuple(f[v] for v in t) for t in a_rel}
        if not mapped <= b_rel:
            return False
        # reflection: f is injective, so the target tuples inside the image
        # are the mapped ones exactly when there are as many of them
        if sum(image.issuperset(t) for t in b_rel) != len(mapped):
            return False
    return True


def _sparse_types(s: FinStructure) -> tuple[list[int], list[dict[int, int]],
                                            list[tuple[int, ...]]]:
    """Per point x: its self type (one bit per relation of arity 1 or 2,
    set when it holds (x,) or (x, x)), the nonzero types of the pairs
    (x, y) as ``{y: type}``, and its degree colour.  A pair type has one
    bit per (binary relation, direction): bit 2i for (x, y) in the i-th
    binary relation, bit 2i + 1 for (y, x)."""
    self_types = [0] * s.size
    pair_types: list[dict[int, int]] = [{} for _ in s.domain]
    bit = pair_bit = 1
    for spec, tuples in zip(s.signature.relations, s.relations):
        if spec.arity == 1:
            for (x,) in tuples:
                self_types[x] |= bit
            bit <<= 1
        elif spec.arity == 2:
            back = pair_bit << 1
            for x, y in tuples:
                if x == y:
                    self_types[x] |= bit
                else:
                    pair_types[x][y] = pair_types[x].get(y, 0) | pair_bit
                    pair_types[y][x] = pair_types[y].get(x, 0) | back
            bit <<= 1
            pair_bit <<= 2
    return self_types, pair_types, _degree_colors(s)


def _degree_colors(s: FinStructure) -> list[tuple[int, ...]]:
    """Per point: per relation and position, the number of tuples that hold
    the point there.  An isomorphism invariant, the point's colour."""
    columns = []
    for spec, tuples in zip(s.signature.relations, s.relations):
        for pos in range(spec.arity):
            column = [0] * s.size
            for t in tuples:
                column[t[pos]] += 1
            columns.append(column)
    return list(zip(*columns)) if columns else [()] * s.size


def _embedding_search(a: FinStructure, b: FinStructure, below: int | None = None
                      ) -> Iterator[tuple[int, ...]]:
    """Embeddings of ``a`` into ``b``, in lexicographic map order.

    Candidate sets are bitmasks over the points of ``b``.  Vertex v of ``a``
    starts from the points of ``b`` with its self type (loops and unary
    tuples) and at least each count of its degree colour.  Once the
    vertices below v are placed, v's candidates are those points AND-ed
    with, for every placed u, the mask of points y of ``b`` whose pair type
    with f(u) is the type of (u, v) in ``a``; "no relation" is a type too,
    so that one AND both preserves and reflects every relation of arity at
    most 2, and excludes the points already used.  Relations of arity 3 or
    more are checked tuple by tuple as each vertex is placed.  Vertices are
    placed in increasing order and candidates taken lowest bit first, so
    maps come out in lexicographic order.

    ``below`` limits the images to the points below it: the embeddings into
    the initial segment ``restriction(b, range(below))``, which that
    segment's own relabelling leaves unchanged, found without building it.
    """
    if a.signature != b.signature:
        raise SignatureMismatchError("enumerate_embeddings: signatures differ")
    n = a.size
    m = b.size if below is None else min(below, b.size)
    if n > m:
        return
    if n == 0:
        yield ()
        return

    a_self, a_pairs, a_colors = a._point_types
    b_self, b_pairs, b_at_least = b._type_masks
    within = (1 << m) - 1
    domains: list[int] = []
    for v in a.domain:
        dom = b_self.get(a_self[v], 0) & within
        for count, at_least in zip(a_colors[v], b_at_least):
            if count:
                dom &= at_least[count] if count < len(at_least) else 0
        if not dom:
            return
        domains.append(dom)
    # per vertex v: (u, type of (u, v)) for every u < v, related pairs
    # first, as they cut the candidates most
    needs = [sorted(((u, a_pairs[u].get(v, 0)) for u in range(v)),
                    key=lambda ut: not ut[1])
             for v in a.domain]

    # relations of arity >= 3: the tuples of a that are complete once
    # their largest vertex is placed, and the tuples of b at each point
    wide = [ri for ri, spec in enumerate(a.signature.relations) if spec.arity > 2]
    a_wide: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in a.domain]
    b_wide: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for ri in wide:
        for t in a.relations[ri]:
            a_wide[max(t)].append((ri, t))
        for t in b.relations[ri]:
            for w in set(t):
                b_wide.setdefault(w, []).append((ri, t))

    f = [0] * n  # f[u] is the image of u, for the u below the current level

    def wide_ok(v: int, w: int) -> bool:
        for ri, t in a_wide[v]:
            if tuple(f[x] if x != v else w for x in t) not in b.relations[ri]:
                return False
        inv = {f[u]: u for u in range(v)}
        inv[w] = v
        for ri, t in b_wide.get(w, ()):
            if all(x in inv for x in t) and tuple(inv[x] for x in t) not in a.relations[ri]:
                return False
        return True

    candidates = [0] * n
    candidates[0] = domains[0]
    v = 0
    while v >= 0:
        cands = candidates[v]
        if not cands:
            v -= 1
            continue
        low = cands & -cands
        candidates[v] = cands ^ low
        w = low.bit_length() - 1
        if wide and not wide_ok(v, w):
            continue
        f[v] = w
        if v + 1 == n:
            yield tuple(f)
            continue
        v += 1
        cands = domains[v]
        for u, t in needs[v]:
            cands &= b_pairs[f[u]].get(t, 0)
            if not cands:
                break
        candidates[v] = cands


@lru_cache(maxsize=None)
def enumerate_embeddings(a: FinStructure, b: FinStructure) -> tuple[Embedding, ...]:
    """All embeddings of ``a`` into ``b`` in lexicographic map order."""
    return tuple(Embedding(a, b, m, _checked=True)
                 for m in _embedding_search(a, b))


def first_embedding(a: FinStructure, b: FinStructure) -> Embedding | None:
    for m in _embedding_search(a, b):
        return Embedding(a, b, m, _checked=True)
    return None


def hom_nonempty(a: FinStructure, b: FinStructure) -> bool:
    return first_embedding(a, b) is not None


def restriction(a: FinStructure, subset: Iterable[int]) -> FinStructure:
    """Induced substructure on ``subset``, relabeled order-preservingly onto
    an initial segment."""
    points = sorted(set(subset))
    for p in points:
        if not (0 <= p < a.size):
            raise StructureError(f"restriction: element {p} out of range")
    relabel = {p: i for i, p in enumerate(points)}
    keep = set(points)
    rels = tuple(
        frozenset(tuple(relabel[v] for v in t) for t in tuples
                  if all(v in keep for v in t))
        for tuples in a.relations
    )
    return FinStructure(a.signature, len(points), rels, _checked=True)


def inclusion_of_restriction(a: FinStructure, subset: Iterable[int]) -> Embedding:
    """The relabeling map of ``restriction(a, subset)`` back into ``a``."""
    points = tuple(sorted(set(subset)))
    return Embedding(restriction(a, points), a, points, _checked=True)


def reduct(a: FinStructure, names: Sequence[str]) -> FinStructure:
    """Forget all relations except ``names`` (kept in ``a``'s order)."""
    keep = [spec.name for spec in a.signature.relations if spec.name in set(names)]
    if len(keep) != len(set(names)):
        raise StructureError(f"reduct: relations {sorted(set(names) - set(keep))} absent")
    sig = Signature(tuple(a.signature.spec(n) for n in keep))
    return FinStructure(sig, a.size, tuple(a.rel(n) for n in keep), _checked=True)


def are_isomorphic(a: FinStructure, b: FinStructure) -> tuple[bool, Embedding | None]:
    """Isomorphism test with witness.

    A surjective embedding is an isomorphism; between equal-sized finite
    structures every embedding is surjective, so the first embedding found
    is a witness.
    """
    if a.signature != b.signature:
        raise SignatureMismatchError("are_isomorphic: signatures differ")
    if a.size != b.size:
        return False, None
    if tuple(len(r) for r in a.relations) != tuple(len(r) for r in b.relations):
        return False, None
    w = first_embedding(a, b)
    return (w is not None), w


def canonical_key(a: FinStructure):
    """A permutation-invariant encoding; equal keys iff isomorphic.

    Each vertex gets its degree colour (``_degree_colors``), an
    isomorphism invariant: per relation and position, the number of tuples
    that hold the vertex there.  The color classes (cells) are laid out in
    color order, each on its own block of positions.  A relabeling ``perm``
    encodes a relation of arity k on n points as one int with a bit per
    tuple t, at index ``perm[t0]·n^(k-1) + ... + perm[t(k-1)]``: t's image
    read as k digits in base n.  The key is the least tuple of these codes
    over the relabelings that send every cell onto its block: the product
    of the per-cell permutations instead of all n!.  An isomorphism maps
    cells onto cells of the same color, so isomorphic structures range
    over the same encodings and share the minimum; the digits of a bit's
    index are the tuple's image, so equal encodings are equal relabeled
    structures, and the key stays complete.

    Keys are not cached: class enumeration asks once per labelled
    candidate, and a cache would keep every candidate alive.
    """
    n = a.size
    colors = _degree_colors(a)
    by_color = sorted(a.domain, key=colors.__getitem__)
    cells = [tuple(cell) for _, cell in
             itertools.groupby(by_color, key=colors.__getitem__)]
    # each relation's tuples, listed once for every relabeling
    rels = [(spec.arity, tuple(tuples))
            for spec, tuples in zip(a.signature.relations, a.relations)]
    perm = [0] * n
    best = None
    for blocks in itertools.product(*map(itertools.permutations, cells)):
        for pos, v in enumerate(itertools.chain.from_iterable(blocks)):
            perm[v] = pos
        codes = []
        for arity, tuples in rels:
            if arity == 2:  # every catalog class's arity, in one pass
                code = sum([1 << (perm[x] * n + perm[y]) for x, y in tuples])
            else:
                code = 0
                for t in tuples:
                    index = 0
                    for v in t:
                        index = index * n + perm[v]
                    code |= 1 << index
            codes.append(code)
        enc = tuple(codes)
        if best is None or enc < best:
            best = enc
    return (a.signature, n, best)


def automorphisms(a: FinStructure) -> tuple[Embedding, ...]:
    return enumerate_embeddings(a, a)


# ---------------------------------------------------------------------------
# JSON and DOT serialization


def structure_to_dict(a: FinStructure) -> dict:
    return {
        "signature": [
            {"name": s.name, "arity": s.arity, "tag": s.tag}
            for s in a.signature.relations
        ],
        "size": a.size,
        "relations": {
            spec.name: sorted(list(t) for t in tuples)
            for spec, tuples in zip(a.signature.relations, a.relations)
        },
    }


def structure_to_json(a: FinStructure) -> str:
    return json.dumps(structure_to_dict(a), sort_keys=True)


def _int_rows(rows) -> bool:
    """``rows`` is a JSON list of lists of integers (bools are not integers)."""
    return isinstance(rows, list) and all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows)


def structure_from_dict(doc: dict) -> FinStructure:
    """The structure a JSON document describes; a document of another shape
    raises StructureError before any of it is used."""
    if not (isinstance(doc, dict) and isinstance(doc.get("signature"), list)
            and type(doc.get("size")) is int
            and isinstance(doc.get("relations", {}), dict)):
        raise StructureError('a structure is an object with a "signature" list, '
                             'an integer "size" and a "relations" object')
    if not all(isinstance(s, dict) and isinstance(s.get("name"), str)
               and type(s.get("arity")) is int for s in doc["signature"]):
        raise StructureError('a relation symbol is an object with a "name" '
                             'string and an integer "arity"')
    if not all(map(_int_rows, doc.get("relations", {}).values())):
        raise StructureError("the tuples of a relation are lists of integers")
    sig = Signature(tuple(
        RelationSpec(s["name"], s["arity"], s.get("tag", TAG_NONE))
        for s in doc["signature"]
    ))
    return FinStructure.build(sig, doc["size"], doc.get("relations", {}))


def structure_from_json(text: str) -> FinStructure:
    return structure_from_dict(json.loads(text))


def structure_to_dot(a: FinStructure) -> str:
    """DOT export for structures whose relations are all binary."""
    for spec in a.signature.relations:
        if spec.arity != 2:
            raise StructureError("DOT export supports binary relations only")
    symmetric = all(s.tag == TAG_SYMMETRIC for s in a.signature.relations)
    kind, sep = ("graph", "--") if symmetric else ("digraph", "->")
    lines = [f"{kind} G {{"]
    for v in a.domain:
        lines.append(f"  {v};")
    for spec, tuples in zip(a.signature.relations, a.relations):
        label = f' [label="{spec.name}"]' if len(a.signature.relations) > 1 else ""
        seen = set()
        for x, y in sorted(tuples):
            if symmetric:
                if (y, x) in seen:
                    continue
                seen.add((x, y))
            lines.append(f"  {x} {sep} {y}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
