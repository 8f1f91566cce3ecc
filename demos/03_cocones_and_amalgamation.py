#!/usr/bin/env python3
"""Binary digraphs, commuting cocones, and class amalgamation checks.

A binary digraph has a top row and a bottom row, every bottom vertex
throwing exactly two arrows up; decorated with structures it becomes a
diagram whose commuting cocones are the finite stand-in for amalgamation
at the level of whole diagrams.
"""

from ramsey_forge import catalog
from ramsey_forge.catalog import embeds_I_star, is_permutational
from ramsey_forge.diagrams import (
    BinaryDigraph,
    ab_diagram,
    amalgamate,
    check_class_property,
    check_commutes,
    connected_components,
    find_cocone,
)
from ramsey_forge.structures import Embedding

# Walk-connectivity of the top row, through shared bottom vertices.
shape = BinaryDigraph(5, 3, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4)))
print("components of a 5-top/3-bottom shape:", connected_components(shape))

# Two copies of an edge glued over one shared vertex.  In the triangle-free
# class the cocone search returns the 3-path: the cross edge would close a
# triangle.
k1, k2 = catalog.complete_graph(1), catalog.complete_graph(2)
diagram = ab_diagram(k1, k2, [((0,), (0,), 0, 1)], n_top=2)
result = find_cocone(diagram, max_tip_size=8,
                     klass=catalog.CLASSES["triangle-free"])
print("\ntriangle-free cocone tip:", result.cocone.tip)
print("commutes:", check_commutes(diagram, result.cocone))

# The same span through the amalgamation operation: the two sides overlap
# in exactly the shared vertex (strong amalgamation), and the cross edge
# is a free choice.
f = Embedding(k1, k2, (0,))
search = amalgamate(k1, k2, k2, f, f)
print("\nstrong amalgam of two edges over a point:", search.result.amalgam)

# Class-level property checks, exhaustive up to a size bound.
for name in ("chains", "graphs", "tournaments"):
    print(check_class_property("AP", catalog.CLASSES[name], 3).summary())

# Linearly ordered posets: a second linear order recovers the partial
# order by intersection exactly when the 3-point obstruction is absent.
anti = catalog.linearly_ordered_poset(2, [])
print("\n2-antichain second order:", is_permutational(anti))
print("obstruction in the obstruction:", embeds_I_star(catalog.I_STAR),
      "| its witness:", is_permutational(catalog.I_STAR))
