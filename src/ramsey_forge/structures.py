"""Finite relational structures, embeddings, and isomorphism.

Everything downstream (arrow checks, diagrams, universal-structure audits)
is built on the types in this module.  Domains are always the initial
segment ``{0, ..., n-1}``; named vertices belong to I/O layers only, which
keeps hom-set enumeration canonical and structures hashable.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class StructureError(ValueError):
    """A structure or embedding violates a construction invariant."""


class SignatureMismatchError(StructureError):
    """Two structures that must share a signature do not."""


# Relation tags restrict what counts as a valid interpretation and drive
# completion enumeration in amalgamation searches.
TAG_NONE = "none"
TAG_SYMMETRIC = "symmetric-irreflexive"
TAG_LINEAR = "linear-order"
TAG_ORIENTED = "irreflexive-antisymmetric"

VALID_TAGS = (TAG_NONE, TAG_SYMMETRIC, TAG_LINEAR, TAG_ORIENTED)


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
    if tag == TAG_SYMMETRIC:
        for t in tuples:
            x, y = t
            if x == y:
                raise StructureError(f"{name}: loop {t} in symmetric-irreflexive relation")
            if (y, x) not in tuples:
                raise StructureError(f"{name}: missing symmetric pair for {t}")
    elif tag == TAG_ORIENTED:
        for t in tuples:
            x, y = t
            if x == y:
                raise StructureError(f"{name}: loop {t} in oriented relation")
            if (y, x) in tuples:
                raise StructureError(f"{name}: both {t} and {(y, x)} present")
    elif tag == TAG_LINEAR:
        for x in range(size):
            if (x, x) in tuples:
                raise StructureError(f"{name}: loop ({x},{x}) in linear order")
            for y in range(size):
                if x == y:
                    continue
                fwd, bwd = (x, y) in tuples, (y, x) in tuples
                if fwd == bwd:
                    raise StructureError(f"{name}: not a strict total order at ({x},{y})")
        for x, y in tuples:
            for z in range(size):
                if (y, z) in tuples and (x, z) not in tuples:
                    raise StructureError(f"{name}: order not transitive at ({x},{y},{z})")


@dataclass(frozen=True)
class FinStructure:
    """A finite relational structure over domain ``{0, ..., size-1}``."""

    signature: Signature
    size: int
    relations: tuple[frozenset[tuple[int, ...]], ...]  # aligned with signature.relations

    def __post_init__(self) -> None:
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


def _degree_profiles(s: FinStructure) -> list[dict[tuple[int, int], int]]:
    """Per vertex: counts of incident relation tuples by (relation, position)."""
    profiles: list[dict[tuple[int, int], int]] = [dict() for _ in s.domain]
    for ri, tuples in enumerate(s.relations):
        for t in tuples:
            for pos, v in enumerate(t):
                key = (ri, pos)
                profiles[v][key] = profiles[v].get(key, 0) + 1
    return profiles


def _embedding_search(a: FinStructure, b: FinStructure
                      ) -> Iterator[tuple[int, ...]]:
    """Backtracking search for embeddings of ``a`` into ``b``.

    Vertices of ``a`` are assigned in increasing order with candidates tried
    in increasing order, so the emitted maps are in lexicographic order.
    Candidates are pre-filtered by relation-degree profiles.
    """
    if a.signature != b.signature:
        raise SignatureMismatchError("enumerate_embeddings: signatures differ")
    n = a.size
    if n > b.size:
        return
    if n == 0:
        yield ()
        return

    prof_a = _degree_profiles(a)
    prof_b = _degree_profiles(b)
    candidates: list[list[int]] = []
    for v in a.domain:
        need = prof_a[v]
        cands = [w for w in b.domain
                 if all(prof_b[w].get(k, 0) >= c for k, c in need.items())]
        if not cands:
            return
        candidates.append(cands)

    # tuples of a touching vertex v whose other entries are all already
    # assigned once v is placed (vertices assigned in increasing order)
    a_constraints: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in a.domain]
    for ri, tuples in enumerate(a.relations):
        for t in tuples:
            a_constraints[max(t)].append((ri, t))

    b_rels = b.relations
    a_rels = a.relations
    assignment: list[int] = [-1] * n
    used = [False] * b.size
    b_tuples_by_vertex: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in b.domain]
    for ri, tuples in enumerate(b_rels):
        for t in tuples:
            for w in set(t):
                b_tuples_by_vertex[w].append((ri, t))

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for ri, t in a_constraints[v]:
                if tuple(assignment[x] if x != v else w for x in t) not in b_rels[ri]:
                    ok = False
                    break
            if ok:
                # reflection on tuples of b that fall inside the partial image
                inv = {assignment[u]: u for u in range(v)}
                inv[w] = v
                for ri, t in b_tuples_by_vertex[w]:
                    if all(x in inv for x in t):
                        if tuple(inv[x] for x in t) not in a_rels[ri]:
                            ok = False
                            break
            if not ok:
                continue
            assignment[v] = w
            used[w] = True
            if v + 1 == n:
                yield tuple(assignment)
            else:
                yield from extend(v + 1)
            used[w] = False
            assignment[v] = -1

    yield from extend(0)


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
    return FinStructure(a.signature, len(points), rels)


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
    return FinStructure(sig, a.size, tuple(a.rel(n) for n in keep))


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

    Each vertex is colored by its degree profile, an isomorphism
    invariant, and the color classes (cells) are laid out in color order,
    each on its own block of positions.  The key is the least encoding over
    the relabelings that send every cell onto its block: the product of the
    per-cell permutations instead of all n!.  An isomorphism maps cells onto
    cells of the same color, so isomorphic structures range over the same
    encodings and share the minimum; equal encodings are equal relabeled
    structures, so the key stays complete.

    Keys are not cached: class enumeration asks once per labelled
    candidate, and a cache would keep every candidate alive.
    """
    profiles = _degree_profiles(a)
    colors = [tuple(sorted(p.items())) for p in profiles]
    by_color = sorted(a.domain, key=colors.__getitem__)
    cells = [tuple(cell) for _, cell in
             itertools.groupby(by_color, key=colors.__getitem__)]
    perm = [0] * a.size
    best = None
    for blocks in itertools.product(*map(itertools.permutations, cells)):
        for pos, v in enumerate(itertools.chain.from_iterable(blocks)):
            perm[v] = pos
        enc = tuple(
            tuple(sorted(tuple(perm[v] for v in t) for t in tuples))
            for tuples in a.relations
        )
        if best is None or enc < best:
            best = enc
    return (a.signature, a.size, best)


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
