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
- ``arrow-check.json``: ``arrow check`` on the chains in ``structures/``
  with C on at most 6 points, B on at most 3 and A on at most 2, at
  (k, t) = (2, 1) and (3, 2), pruned and with ``--oracle``; the
  largest triple at ``--budget`` 1, 10, 100 and 1000, undecided below
  the size of its search; and a sample in text.
- ``universe-gen.json``: ``universe gen`` of every kind at ``-n`` 0, 1, 8
  and 33, in both formats and with ``--dot``.
- ``universe-audit.json``: ``universe audit`` of each kind against the
  class on its signature that it is built for, at ``--max-size`` 3 and
  ``-N`` 16 and 32, in both formats, and one kind and class whose
  signatures differ.
- ``metric-analyze.json``: ``metric analyze`` on compact and non-compact
  distance sets, and on sets it rejects, in both formats.
- ``metric-amalgamate.json`` and ``metric-star.json``: ``metric
  amalgamate`` on every eighth span of the acceptance suite's corpus of
  spanned amalgams, and ``metric star`` on the amalgams it reports, with
  the spaces in ``metric/``; each also on one input it rejects.

``--out`` and ``--witness-out`` write files, so no record uses them.

A golden file is a check: regenerate it only when a report is meant to
change, and say which records changed and why.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

from ramsey_forge import catalog, cli, metric, universes
from ramsey_forge.structures import enumerate_embeddings, structure_to_dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from conftest import spanned_amalgam_corpus  # noqa: E402  (criterion 8's corpus)
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


# each universe kind and the class on its signature that it is built for
# (``ordered_rado`` has no class on its signature)
AUDITS = (("rado", "graphs"), ("henson3", "triangle-free"),
          ("acyclic-universal", "dags"), ("acyclic-triangle-free", "dags"),
          ("rational-chain", "permutations"),
          ("permutational-poset", "linearly-ordered-posets"))
DISTANCE_SETS = ("0,1", "0,1,3", "0,1,2,5,6", "0,1,3,7", "0,2,3,7,8",
                 "0,1,2,5,6,14", "0,1/2,1,5/2,11/2", "0,1,2,3", "0,1,2,4",
                 "0,3,4,5,11", "0,1,3,4")
BAD_SETS = ("0", "1,2", "0,0,1", "0,x", "0,1/0")


def write(path: str, doc) -> str:
    (HERE / path).parent.mkdir(exist_ok=True)
    (HERE / path).write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def arrow_records() -> list[dict]:
    chain = [write(f"structures/chain-{n}.json",
                   structure_to_dict(catalog.chain(n))) for n in range(7)]
    records = []
    for c, b, a in itertools.product(range(7), range(4), range(3)):
        for k, t in (("2", "1"), ("3", "2")):
            for oracle in ([], ["--oracle"]):
                records.append(record(["arrow", "check", "--C", chain[c],
                                       "--B", chain[b], "--A", chain[a],
                                       "-k", k, "-t", t, *oracle]))
    for budget in ("1", "10", "100", "1000"):
        for oracle in ([], ["--oracle"]):
            records.append(record(["--budget", budget, "arrow", "check",
                                   "--C", chain[6], "--B", chain[3],
                                   "--A", chain[2], "-k", "2", "-t", "1",
                                   *oracle]))
    for c in range(3, 7):
        records.append(record(["--format", "text", "arrow", "check",
                               "--C", chain[c], "--B", chain[3],
                               "--A", chain[2], "-k", "2", "-t", "1"]))
    return records


def metric_records() -> tuple[list[dict], list[dict], list[dict]]:
    analyze = [record(["--format", fmt, "metric", "analyze", "--set", s])
               for s in DISTANCE_SETS + BAD_SETS for fmt in FORMATS]
    amalgamate, star = [], []
    for i, (m, mp, mpp, _, _, l) in enumerate(spanned_amalgam_corpus()[::8]):
        paths = [write(f"metric/span{i}-{part}.json", metric.metric_to_dict(s))
                 for part, s in zip(("M", "Mp", "Mpp", "L"), (m, mp, mpp, l))]
        amalgamate.append(record(["metric", "amalgamate",
                                  *itertools.chain(*zip(
                                      ("--M", "--Mp", "--Mpp", "--L"), paths))]))
        doc = json.loads(amalgamate[-1]["stdout"])["amalgam"]
        star.append(record(["metric", "star", "--in",
                            write(f"metric/amalgam{i}.json", doc)]))
    star.append(record(["--format", "text", "metric", "star", "--in",
                        "metric/amalgam0.json"]))
    one_block = write("metric/one-block.json",
                      {"set": [0, 2, 3], "d": [[0, 2], [2, 0]]})
    star.append(record(["metric", "star", "--in", one_block]))
    amalgamate.append(record(["metric", "amalgamate", "--M", one_block,
                              "--Mp", "metric/span0-Mp.json",
                              "--Mpp", "metric/span0-Mpp.json",
                              "--L", "metric/span0-L.json"]))
    return analyze, amalgamate, star


def main() -> None:
    os.chdir(HERE)
    fraisse = [record(["--format", fmt, "fraisse", "check", "--class", name,
                       "--property", prop, "--max-size", str(n)])
               for name in catalog.CLASSES for prop in PROPERTIES
               for n in range(4) for fmt in FORMATS]
    selftest = [record(["--format", fmt, "selftest"]) for fmt in FORMATS]
    cocone = []
    for name in catalog.CLASSES:
        for kind, doc in diagrams_of(name).items():
            path = write(f"diagrams/{name}-{kind}.json", doc)
            for klass in ([], ["--class", name]):
                for tip in ("2", "4", "8"):
                    cocone.append(record(["diagram", "cocone", "--in", path,
                                          "--max-tip", tip, *klass]))
                cocone.append(record(["--format", "text", "diagram", "cocone",
                                      "--in", path, "--max-tip", "8", *klass]))
    arrow = arrow_records()
    gen = [record([*(["--format", fmt] if fmt else []), "universe", "gen",
                   "--kind", kind.replace("_", "-"), "-n", n,
                   *(["--dot"] if fmt is None else [])])
           for kind in universes.KINDS for n in ("0", "1", "8", "33")
           for fmt in (*FORMATS, None)]
    audit = [record(["--format", fmt, "universe", "audit", "--kind", kind,
                     "--class", name, "--max-size", "3", "-N", n])
             for kind, name in AUDITS for n in ("16", "32") for fmt in FORMATS]
    audit.append(record(["universe", "audit", "--kind", "ordered-rado",
                         "--class", "graphs", "--max-size", "3", "-N", "16"]))
    analyze, amalgamate, star = metric_records()
    for file, records in (("fraisse-check.json", fraisse),
                          ("selftest.json", selftest),
                          ("diagram-cocone.json", cocone),
                          ("arrow-check.json", arrow),
                          ("universe-gen.json", gen),
                          ("universe-audit.json", audit),
                          ("metric-analyze.json", analyze),
                          ("metric-amalgamate.json", amalgamate),
                          ("metric-star.json", star)):
        (HERE / file).write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
