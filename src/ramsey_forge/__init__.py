"""Finite-structure workbench.

Six subject areas, one module each:

- :mod:`ramsey_forge.structures` -- finite relational structures,
  embedding enumeration, isomorphism, restriction;
- :mod:`ramsey_forge.catalog` -- named structures and classes (graphs,
  chains, tournaments, posets, ...) and the relation completer that
  enumerates class members, amalgams and cocone tips;
- :mod:`ramsey_forge.arrows` -- oligochromatic Ramsey arrows on hom-sets,
  minimal oligochromatic degrees, named colorings;
- :mod:`ramsey_forge.diagrams` -- binary digraphs, commuting cocones,
  amalgamation, and class property checkers;
- :mod:`ramsey_forge.universes` -- deterministic initial segments of
  universal structures with extension and universality audits;
- :mod:`ramsey_forge.metric` -- compact distance sets, spanned metric
  spaces, strong amalgamation, the star transform and its inverse.

:mod:`ramsey_forge.selftest` is the built-in invariant suite, and
:mod:`ramsey_forge.cli` wires everything into one command-line tool.
"""

from . import arrows, catalog, diagrams, metric, structures, universes

__version__ = "0.1.0"

__all__ = ["arrows", "catalog", "diagrams", "metric", "structures",
           "universes", "__version__"]
