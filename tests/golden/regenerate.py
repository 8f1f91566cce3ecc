"""Regenerate the golden reports in this directory.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each ``*.json`` file here is a list of records, one per command line: its
``argv``, and the ``exit`` code, ``stdout`` and ``stderr`` that
``cli.dispatch`` gives it when run from this directory.
``tests/test_golden.py`` replays every record and compares the bytes.

- ``fraisse-check.json``: ``fraisse check`` on every built-in class, for
  HP, JEP, AP and SAP, at ``--max-size`` 0 to 3, in both formats.
- ``selftest.json``: ``selftest`` in both formats.
- ``diagram-cocone.json``: ``diagram cocone`` on the seeded diagrams in
  ``diagrams/``, written first, with and without ``--class``, at
  ``--max-tip`` 2, 4 and 8, and in text at 8.  Per class there are two
  one-span diagrams (B <- A -> C), the first with its arrows listed in
  the other order (the span C <- A -> B), a chain of two spans over three
  tops, and two spans between the same two tops, whose glue can merge
  points of one top.

A golden file is a check: regenerate it only when a report is meant to
change, and say which records changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

from ramsey_forge import catalog, cli
from ramsey_forge.structures import enumerate_embeddings, structure_to_dict

HERE = Path(__file__).resolve().parent
PROPERTIES = ("HP", "JEP", "AP", "SAP")
FORMATS = ("json", "text")


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def span(rng: random.Random, members, b=None, c=None) -> tuple:
    """A seeded span (A, f, B, g, C) of members, A on 1 or 2 points and B
    and C on 2 or 3 unless given."""
    bottoms = [m for m in members if 1 <= m.size <= 2]
    tops = [m for m in members if 2 <= m.size <= 3]
    while True:
        a = rng.choice(bottoms)
        bb = b if b is not None else rng.choice(tops)
        cc = c if c is not None else rng.choice(tops)
        fs, gs = enumerate_embeddings(a, bb), enumerate_embeddings(a, cc)
        if fs and gs:
            return a, rng.choice(fs).map, bb, rng.choice(gs).map, cc


def diagram_doc(tops, spans) -> dict:
    """The document of a diagram whose spans ``(A, i, f, j, g)`` glue top
    ``i`` along f to top ``j`` along g."""
    return {
        "shape": {"top": len(tops), "bottom": len(spans),
                  "arrows": [[s, t] for s, (_, i, _, j, _) in enumerate(spans)
                             for t in (i, j)]},
        "top_objects": [structure_to_dict(t) for t in tops],
        "bottom_objects": [structure_to_dict(a) for a, *_ in spans],
        "arrow_maps": [list(m) for _, _, f, _, g in spans for m in (f, g)],
    }


def diagrams_of(name: str) -> dict[str, dict]:
    rng = random.Random(name)
    members = catalog.CLASSES[name].members_up_to(3)
    docs = {}
    for k in (1, 2):
        a, f, b, g, c = span(rng, members)
        docs[f"span{k}"] = diagram_doc([b, c], [(a, 0, f, 1, g)])
        if k == 1:
            docs["span1-flipped"] = diagram_doc([b, c], [(a, 1, g, 0, f)])
    a1, f1, b0, g1, b1 = span(rng, members)
    a2, f2, _, g2, b2 = span(rng, members, b=b1)
    docs["chain"] = diagram_doc([b0, b1, b2], [(a1, 0, f1, 1, g1),
                                               (a2, 1, f2, 2, g2)])
    a1, f1, b, g1, c = span(rng, members)
    a2, f2, _, g2, _ = span(rng, members, b=b, c=c)
    docs["double"] = diagram_doc([b, c], [(a1, 0, f1, 1, g1),
                                          (a2, 0, f2, 1, g2)])
    return docs


def main() -> None:
    os.chdir(HERE)
    fraisse = [record(["--format", fmt, "fraisse", "check", "--class", name,
                       "--property", prop, "--max-size", str(n)])
               for name in catalog.CLASSES for prop in PROPERTIES
               for n in range(4) for fmt in FORMATS]
    selftest = [record(["--format", fmt, "selftest"]) for fmt in FORMATS]
    (HERE / "diagrams").mkdir(exist_ok=True)
    cocone = []
    for name in catalog.CLASSES:
        for kind, doc in diagrams_of(name).items():
            path = f"diagrams/{name}-{kind}.json"
            (HERE / path).write_text(json.dumps(doc, sort_keys=True) + "\n")
            for klass in ([], ["--class", name]):
                for tip in ("2", "4", "8"):
                    cocone.append(record(["diagram", "cocone", "--in", path,
                                          "--max-tip", tip, *klass]))
                cocone.append(record(["--format", "text", "diagram", "cocone",
                                      "--in", path, "--max-tip", "8", *klass]))
    for file, records in (("fraisse-check.json", fraisse),
                          ("selftest.json", selftest),
                          ("diagram-cocone.json", cocone)):
        (HERE / file).write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
