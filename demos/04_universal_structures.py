#!/usr/bin/env python3
"""Deterministic segments of universal structures, with audits.

No randomness anywhere: the BIT rule presents the countable random graph,
orienting its edges along the natural order gives a universal acyclic
oriented graph, a greedy request queue grows the triangle-free analogue,
and a Calkin-Wilf walk enumerates the rationals for the permutation and
poset universes.  Segments nest, so every claim is reproducible.
"""

from ramsey_forge import catalog
from ramsey_forge.structures import restriction
from ramsey_forge.universes import (
    acyclic_universal,
    check_extension_property,
    check_universal,
    henson3,
    permutational_poset,
    rado,
    rational_point,
)

# Vertex j is adjacent to i < j exactly when bit i of j is set.
print("BIT graph on 4 vertices:",
      sorted(t for t in rado(4).rel("E") if t[0] < t[1]))
print("oriented along the natural order:", sorted(acyclic_universal(4).rel("arc")))

# Segments nest: the size-n structure is the restriction of every larger one.
print("\nnested:", restriction(rado(40), range(12)) == rado(12))

# The extension property drives universality: for disjoint U, V find a
# vertex adjacent to all of U, none of V.  The BIT witness sum(2^u) is
# tried first and verified; a scan covers the cases it misses.
report = check_extension_property(rado(64), r=3, prefix=5)
print("extension requests satisfied in rado(64):", report.all_satisfied,
      f"({len(report.requests)} requests)")

# Universality audits, honestly bounded: every small member either embeds
# into the segment or is reported (never escalated to a refutation).
for kind, cls, segment in [("rado", "graphs", 16),
                           ("acyclic_universal", "dags", 32),
                           ("henson3", "triangle-free", 32)]:
    rep = check_universal(kind, catalog.CLASSES[cls], 3, segment)
    print(f"{kind}: all {cls} on <=3 vertices embedded:",
          rep.all_embedded, "| minimal segments:",
          [e.minimal_segment for e in rep.entries])

# The greedy triangle-free universe really is triangle-free, and the
# rational-walk poset avoids the three-point obstruction at every size.
print("\nhenson3(64) triangle-free:", catalog.is_triangle_free(henson3(64)))
print("permutational poset on 30 points obstruction-free:",
      not catalog.embeds_I_star(permutational_poset(30)))
print("first rationals of the walk:",
      [str(rational_point(i)) for i in range(7)])
