"""Known answers and the benchmark's own checkers.

Nothing here calls into ``ramsey_forge``: every check re-derives the
definition from the raw data of a structure (its size and relation tuples)
or of a distance set, so a wrong answer from the program cannot also make
its check pass.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm

# Radziszowski, "Small Ramsey Numbers" (EJC dynamic survey DS1).  For chains,
# chain(n) -> (chain b)^(chain a)_{k,1} holds exactly when n reaches the
# Ramsey number: R(3,3) = 6, R(4,4) = 18, R(3,3,3) = 17, R_3(4,4) = 13.
RAMSEY_THRESHOLD = {
    (3, 2, 2): 6,
    (4, 2, 2): 18,
    (3, 2, 3): 17,
    (4, 3, 2): 13,
}


def chain_arrow_holds(n: int, b: int, a: int, k: int) -> bool:
    """Known truth of chain(n) -> (chain b)^(chain a)_{k,1}."""
    return n >= RAMSEY_THRESHOLD[(b, a, k)]


# Amalgamation truth per class.  Chains, graphs, oriented graphs and
# tournaments are Fraisse classes with strong amalgamation; acyclic digraphs
# fail AP (a path a -> b in one side and b -> a in the other closes a
# cycle).  The class of graphs on at most two vertices fails AP: the
# edgeless pair and the edge, glued at a point, need three vertices.
AMALGAMATION_TRUTH = {
    ("AP", "chains"): True,
    ("AP", "graphs"): True,
    ("AP", "oriented-graphs"): True,
    ("AP", "tournaments"): True,
    ("AP", "dags"): False,
    ("SAP", "graphs"): True,
    ("AP", "graphs-le-2"): False,
}

# OEIS member counts for n = 1, 2, ...: A000088 (graphs), A003087 (acyclic
# digraphs), A006455 (naturally labelled posets: a partial order together
# with a fixed linear extension), A000568 (tournaments).
MEMBER_COUNTS = {
    "graphs": (1, 2, 4, 11, 34),
    "dags": (1, 2, 6, 31, 302),
    "linearly-ordered-posets": (1, 2, 7, 40, 357),
    "tournaments": (1, 1, 2, 4, 12),
}

# Items whose wrong answer is a recorded defect of the program, not of the
# benchmark: they count in ``failed`` and ``error_rate`` but do not make the
# run incorrect.  Each names where the defect is recorded.
KNOWN_DEFECTS = {
    "ap-graphs-le-2": "ROADMAP item 3: AP runs the strong (pushout-only) "
                      "search and reports a span that does amalgamate",
}


# ---------------------------------------------------------------------------
# structures as plain data: (size, [set of tuples per relation])


def raw(s) -> tuple[int, list[frozenset]]:
    return s.size, list(s.relations)


def is_embedding_raw(f, a, b) -> bool:
    """Injective, every relation preserved and reflected (by definition)."""
    na, rels_a = a
    nb, rels_b = b
    if len(f) != na or len(set(f)) != na or any(not 0 <= v < nb for v in f):
        return False
    image = set(f)
    for ra, rb in zip(rels_a, rels_b):
        if any(tuple(f[v] for v in t) not in rb for t in ra):
            return False
        inv = {w: v for v, w in enumerate(f)}
        for t in rb:
            if all(v in image for v in t) and tuple(inv[v] for v in t) not in ra:
                return False
    return True


def find_embedding_raw(a, b):
    """First embedding of ``a`` into ``b`` by plain backtracking, or None.

    Assigns vertices of ``a`` in order and checks every relation between the
    new vertex and the ones already placed, in both directions.
    """
    na, rels_a = a
    nb, rels_b = b
    if na > nb:
        return None
    assignment: list[int] = []

    def consistent(v: int, w: int) -> bool:
        for ra, rb in zip(rels_a, rels_b):
            for u in range(v):
                x = assignment[u]
                if ((u, v) in ra) != ((x, w) in rb) or ((v, u) in ra) != ((w, x) in rb):
                    return False
        return True

    def extend(v: int) -> bool:
        if v == na:
            return True
        for w in range(nb):
            if w in assignment or not consistent(v, w):
                continue
            assignment.append(w)
            if extend(v + 1):
                return True
            assignment.pop()
        return False

    return tuple(assignment) if extend(0) else None


def restrict_raw(s, m: int):
    """The induced substructure on the first ``m`` points."""
    n, rels = s
    return m, [frozenset(t for t in r if all(v < m for v in t)) for r in rels]


def canonical_raw(s) -> tuple:
    """Least relabelled encoding over all permutations (small n only)."""
    n, rels = s
    return n, min(
        tuple(tuple(sorted(tuple(p[v] for v in t) for t in r)) for r in rels)
        for p in itertools.permutations(range(n)))


# class predicates on raw relations (first relation only where unary)

def is_graph(s) -> bool:
    n, (e, *_) = s
    return all(x != y and (y, x) in e for x, y in e)


def is_oriented(s) -> bool:
    n, (arc, *_) = s
    return all(x != y and (y, x) not in arc for x, y in arc)


def is_tournament(s) -> bool:
    n, (arc, *_) = s
    return is_oriented(s) and all(
        ((x, y) in arc) != ((y, x) in arc)
        for x in range(n) for y in range(x + 1, n))


def is_acyclic(s) -> bool:
    n, (arc, *_) = s
    if not is_oriented(s):
        return False
    indegree = [0] * n
    for _, y in arc:
        indegree[y] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for x, y in arc:
            if x == v:
                indegree[y] -= 1
                if indegree[y] == 0:
                    ready.append(y)
    return seen == n


def is_strict_order(n: int, rel) -> bool:
    return all(x != y and (y, x) not in rel for x, y in rel) and all(
        (x, z) in rel for x, y in rel for y2, z in rel if y == y2)


def is_linear_order(n: int, rel) -> bool:
    return is_strict_order(n, rel) and all(
        ((x, y) in rel) != ((y, x) in rel)
        for x in range(n) for y in range(x + 1, n))


def is_lo_poset(s) -> bool:
    n, (po, omega) = s
    return is_strict_order(n, po) and is_linear_order(n, omega) and po <= omega


def embeds_obstruction(s) -> bool:
    """Does the three-point obstruction (x < z comparable, y between them in
    omega and incomparable with both) sit inside this lo-poset?"""
    n, (po, omega) = s
    for x, y, z in itertools.permutations(range(n), 3):
        if ((x, y) in omega and (y, z) in omega and (x, z) in po
                and not {(x, y), (y, x), (y, z), (z, y)} & po):
            return True
    return False


# ---------------------------------------------------------------------------
# universal segments, built from their definitions


def bit_graph(n: int):
    """The BIT graph: for i < j, an edge exactly when bit i of j is set."""
    e = frozenset((i, j) for i in range(n) for j in range(n)
                  if i != j and (max(i, j) >> min(i, j)) & 1)
    return n, [e]


def bit_dag(n: int):
    arc = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if (j >> i) & 1)
    return n, [arc]


def calkin_wilf(n: int) -> list[Fraction]:
    out = [Fraction(1)]
    while len(out) < n:
        q = out[-1]
        out.append(1 / (2 * (q.numerator // q.denominator) - q + 1))
    return out[:n]


def permutational_poset(n: int):
    q = calkin_wilf(n)
    po = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if q[i] < q[j])
    omega = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    return n, [po, omega]


# ---------------------------------------------------------------------------
# arrows: bad colourings by definition


def chain_embeddings(a_size: int, c_order: list[int]) -> list[tuple[int, ...]]:
    """All embeddings of the a-chain into a chain listed by ``c_order``."""
    return [tuple(c) for c in itertools.combinations(c_order, a_size)]


def is_bad_colouring(assignment, base_hom, b_size: int, a_size: int,
                     c_order: list[int], t: int) -> bool:
    """Every copy of the b-chain sees more than ``t`` colours on its
    a-subchains, and ``base_hom`` is exactly hom(A, C)."""
    homs = [tuple(m) for m in base_hom]
    if len(homs) != len(assignment) or set(homs) != set(chain_embeddings(a_size, c_order)):
        return False
    colour = dict(zip(homs, assignment))
    for w in chain_embeddings(b_size, c_order):
        seen = {colour[tuple(w[i] for i in u)] for u in itertools.combinations(range(b_size), a_size)}
        if len(seen) <= t:
            return False
    return True


def oracle_rows(nc: int, na: int, k: int) -> int:
    """Rows the exhaustive oracle may enumerate: k^|hom(A, C)|."""
    return k ** comb(nc, na)


# ---------------------------------------------------------------------------
# amalgamation by brute force over identifications and completions


def amalgam_exists(a, b, c, f, g, member, options) -> bool:
    """Is there D in the class (``member``) with embeddings of B and C that
    agree on A?  D ranges over every way to identify points of B outside
    f(A) with points of C outside g(A), and every completion of the pairs
    neither side determines; ``options`` lists the choices for one pair.
    """
    nb, rels_b = b
    nc, rels_c = c
    g_inv = {g[v]: v for v in range(a[0])}
    free_c = [w for w in range(nc) if w not in g_inv]
    free_b = [v for v in range(nb) if v not in set(f)]
    for k in range(min(len(free_b), len(free_c)) + 1):
        for cs in itertools.combinations(free_c, k):
            for bs in itertools.permutations(free_b, k):
                c_map = {w: f[g_inv[w]] for w in g_inv}
                c_map.update(zip(cs, bs))
                fresh = nb
                for w in free_c:
                    if w not in c_map:
                        c_map[w] = fresh
                        fresh += 1
                cm = tuple(c_map[w] for w in range(nc))
                if _completes(nb, rels_b, nc, rels_c, cm, fresh, member, options):
                    return True
    return False


def _completes(nb, rels_b, nc, rels_c, cm, size, member, options) -> bool:
    fixed: dict[tuple[int, int], bool] = {}
    for x, y in itertools.permutations(range(nb), 2):
        fixed[(x, y)] = (x, y) in rels_b[0]
    for x, y in itertools.permutations(range(nc), 2):
        key, val = (cm[x], cm[y]), (x, y) in rels_c[0]
        if fixed.setdefault(key, val) != val:
            return False
    open_pairs = [(x, y) for x, y in itertools.combinations(range(size), 2)
                  if (x, y) not in fixed]
    base = {p for p, v in fixed.items() if v}
    for choice in itertools.product(options, repeat=len(open_pairs)):
        rel = set(base)
        for (x, y), (fwd, bwd) in zip(open_pairs, choice):
            if fwd:
                rel.add((x, y))
            if bwd:
                rel.add((y, x))
        if member((size, [frozenset(rel)])):
            return True
    return False


GRAPH_OPTIONS = ((False, False), (True, True))
ORIENTED_OPTIONS = ((False, False), (True, False), (False, True))


# ---------------------------------------------------------------------------
# distance sets


def jumps(values) -> tuple:
    """Values that are last, or less than half their successor."""
    return tuple(v for i, v in enumerate(values)
                 if i == len(values) - 1 or 2 * v < values[i + 1])


def block_of(values) -> dict:
    """Block number of each value: 0 for 0, then one block per jump."""
    out, block = {}, 0
    js = set(jumps(values))
    for v in values:
        out[v] = block
        if v in js:
            block += 1
    return out


def is_compact(values) -> bool:
    """|x - y| <= s1 exactly when x and y share a block, over positive pairs."""
    blk = block_of(values)
    pos = values[1:]
    return all((abs(x - y) <= pos[0]) == (blk[x] == blk[y])
               for x, y in itertools.combinations_with_replacement(pos, 2))


def metric_triple(a, b, c) -> bool:
    return a + b >= c and b + c >= a and c + a >= b


def four_values(values) -> bool:
    """For all positive a, b, c, d: if some p makes (a,b,p) and (c,d,p)
    metric, some q makes (a,c,q) and (b,d,q) metric.

    Works on the values times the lcm of their denominators: scaling keeps
    every triangle inequality, and integers hash and compare fast.
    """
    scale = lcm(*(Fraction(v).denominator for v in values))
    pos = [int(v * scale) for v in values[1:]]
    join = {(x, y): frozenset(p for p in pos if metric_triple(x, y, p))
            for x in pos for y in pos}
    return all(not (join[a, b] & join[c, d]) or (join[a, c] & join[b, d])
               for a, b, c, d in itertools.product(pos, repeat=4))


def four_values_counterexample_ok(values, ce) -> bool:
    a, b, c, d, p = ce
    pos = values[1:]
    return (metric_triple(a, b, p) and metric_triple(c, d, p)
            and not any(metric_triple(a, c, q) and metric_triple(b, d, q) for q in pos))


def is_metric_matrix(d, values) -> bool:
    n = len(d)
    allowed = set(values)
    return (all(d[i][j] == d[j][i] and (d[i][j] == 0) == (i == j) and d[i][j] in allowed
                for i in range(n) for j in range(n))
            and all(d[i][j] + d[j][k] >= d[i][k]
                    for i, j, k in itertools.product(range(n), repeat=3)))


def is_isometric_map(src, dst, mapping) -> bool:
    n = len(src)
    return (len(set(mapping)) == n
            and all(src[x][y] == dst[mapping[x]][mapping[y]]
                    for x in range(n) for y in range(n)))


def similarity_classes(d, values) -> list[list[int]]:
    """Classes of 'distance 0 or in the first nontrivial block'."""
    blk = block_of(values)
    classes: list[list[int]] = []
    for x in range(len(d)):
        for cls in classes:
            if blk[d[cls[0]][x]] <= 1:
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes
