import json

import pytest

from ramsey_forge import catalog, structures, universes
from ramsey_forge.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    dispatch,
)
from ramsey_forge.structures import structure_to_json


@pytest.fixture
def chain_files(tmp_path):
    paths = {}
    for n in (2, 3, 5, 6):
        p = tmp_path / f"chain{n}.json"
        p.write_text(structure_to_json(catalog.chain(n)))
        paths[n] = str(p)
    return paths


def run(capsys, argv):
    code = dispatch(argv)
    return code, capsys.readouterr().out


class TestArrowCommand:
    def test_holding_arrow_exits_zero(self, chain_files, capsys):
        code, out = run(capsys, ["arrow", "check", "--C", chain_files[6],
                                 "--B", chain_files[3], "--A", chain_files[2],
                                 "-k", "2", "-t", "1"])
        assert code == EXIT_OK
        assert json.loads(out)["holds"] is True

    def test_failing_arrow_exits_one_with_witness(self, chain_files, capsys,
                                                  tmp_path):
        wfile = tmp_path / "witness.json"
        code, out = run(capsys, ["arrow", "check", "--C", chain_files[5],
                                 "--B", chain_files[3], "--A", chain_files[2],
                                 "-k", "2", "-t", "1",
                                 "--witness-out", str(wfile)])
        assert code == EXIT_FAIL
        doc = json.loads(out)
        assert doc["holds"] is False and "witness" in doc
        saved = json.loads(wfile.read_text())
        assert saved["assignment"] == doc["witness"]["assignment"]

    def test_budget_exhaustion_exits_two(self, chain_files, capsys):
        code, out = run(capsys, ["--budget", "5", "arrow", "check",
                                 "--C", chain_files[6], "--B", chain_files[3],
                                 "--A", chain_files[2], "-k", "2", "-t", "1"])
        assert code == EXIT_UNDECIDED
        assert json.loads(out)["holds"] is None

    def test_oracle_over_budget_is_undecided(self, chain_files, capsys):
        # 40^10 colorings of hom(chain2, chain5) exceed the default budget
        code, out = run(capsys, ["arrow", "check", "--C", chain_files[5],
                                 "--B", chain_files[3], "--A", chain_files[2],
                                 "-k", "40", "-t", "1", "--oracle"])
        assert code == EXIT_UNDECIDED
        assert json.loads(out)["holds"] is None

    def test_oracle_mode_agrees(self, chain_files, capsys):
        code, out = run(capsys, ["arrow", "check", "--C", chain_files[6],
                                 "--B", chain_files[3], "--A", chain_files[2],
                                 "-k", "2", "-t", "1", "--oracle"])
        assert code == EXIT_OK
        assert json.loads(out)["mode"] == "oracle"

    def test_byte_identical_reports(self, chain_files, capsys):
        argv = ["arrow", "check", "--C", chain_files[5], "--B", chain_files[3],
                "--A", chain_files[2], "-k", "2", "-t", "1"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_env_budget_override(self, chain_files, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEY_FORGE_BUDGET", "5")
        code, _ = run(capsys, ["arrow", "check", "--C", chain_files[6],
                               "--B", chain_files[3], "--A", chain_files[2],
                               "-k", "2", "-t", "1"])
        assert code == EXIT_UNDECIDED

    def test_config_file(self, chain_files, capsys, tmp_path):
        cfg = tmp_path / "forge.cfg"
        cfg.write_text("budget=5\nformat=json\n")
        code, _ = run(capsys, ["--config", str(cfg), "arrow", "check",
                               "--C", chain_files[6], "--B", chain_files[3],
                               "--A", chain_files[2], "-k", "2", "-t", "1"])
        assert code == EXIT_UNDECIDED


class TestFraisseCommand:
    def test_ap_chains(self, capsys):
        code, out = run(capsys, ["fraisse", "check", "--class", "chains",
                                 "--property", "AP", "--max-size", "3"])
        assert code == EXIT_OK
        assert json.loads(out)["holds"] is True

    def test_unknown_class_usage_error(self, capsys):
        assert dispatch(["fraisse", "check", "--class", "widgets",
                         "--property", "AP", "--max-size", "3"]) == EXIT_USAGE


class TestDiagramCommand:
    def test_cocone_round_trip(self, capsys, tmp_path):
        a, b = catalog.complete_graph(1), catalog.complete_graph(2)
        doc = {
            "shape": {"top": 2, "bottom": 1, "arrows": [[0, 0], [0, 1]]},
            "top_objects": [structures.structure_to_dict(b)] * 2,
            "bottom_objects": [structures.structure_to_dict(a)],
            "arrow_maps": [[0], [0]],
        }
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["diagram", "cocone", "--in", str(path),
                                 "--max-tip", "8", "--class", "triangle-free"])
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["status"] == "found"
        tip = structures.structure_from_dict(result["tip"])
        assert structures.are_isomorphic(tip, catalog.path_graph(3))[0]

    def test_bound_too_small_exits_two(self, capsys, tmp_path):
        a, b = catalog.chain(1), catalog.chain(2)
        doc = {
            "shape": {"top": 2, "bottom": 1, "arrows": [[0, 0], [0, 1]]},
            "top_objects": [structures.structure_to_dict(b)] * 2,
            "bottom_objects": [structures.structure_to_dict(a)],
            "arrow_maps": [[0], [0]],
        }
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["diagram", "cocone", "--in", str(path),
                                 "--max-tip", "2"])
        assert code == EXIT_UNDECIDED


class TestUniverseCommand:
    def test_gen_rado_4(self, capsys):
        code, out = run(capsys, ["universe", "gen", "--kind", "rado", "-n", "4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        edges = {tuple(e) for e in doc["relations"]["E"] if e[0] < e[1]}
        assert edges == {(0, 1), (0, 3), (1, 2), (1, 3)}

    def test_gen_dot_output(self, capsys):
        code, out = run(capsys, ["universe", "gen", "--kind",
                                 "acyclic-universal", "-n", "4", "--dot"])
        assert code == EXIT_OK
        assert out.startswith("digraph G {")

    def test_gen_to_file(self, capsys, tmp_path):
        target = tmp_path / "d32.json"
        code, _ = run(capsys, ["universe", "gen", "--kind",
                               "acyclic-universal", "-n", "32",
                               "--out", str(target)])
        assert code == EXIT_OK
        assert structures.structure_from_json(
            target.read_text()) == universes.acyclic_universal(32)

    def test_gen_text_format(self, capsys, tmp_path):
        doc = structures.structure_to_dict(universes.generate("rado", 2))
        want = "".join(f"{key}: {json.dumps(doc[key], sort_keys=True)}\n"
                       for key in sorted(doc))
        code, out = run(capsys, ["--format", "text", "universe", "gen",
                                 "--kind", "rado", "-n", "2"])
        assert code == EXIT_OK and out == want
        target = tmp_path / "rado2.txt"
        code, _ = run(capsys, ["--format", "text", "universe", "gen", "--kind",
                               "rado", "-n", "2", "--out", str(target)])
        assert code == EXIT_OK and target.read_text() == want

    def test_audit(self, capsys):
        code, out = run(capsys, ["universe", "audit", "--kind", "rado",
                                 "--class", "graphs", "--max-size", "3",
                                 "-N", "16"])
        assert code == EXIT_OK
        assert json.loads(out)["all_embedded"] is True

    def test_unknown_kind(self, capsys):
        assert dispatch(["universe", "gen", "--kind", "sponge",
                         "-n", "3"]) == EXIT_USAGE


class TestMetricCommand:
    def test_analyze_compact(self, capsys):
        code, out = run(capsys, ["metric", "analyze", "--set", "0,1,2,5,6"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["compact"] is True and doc["four_values"] is True
        assert doc["jumps"] == [0, 2, 6]

    def test_analyze_non_compact(self, capsys):
        code, out = run(capsys, ["metric", "analyze", "--set", "0,1,2,3"])
        assert code == EXIT_FAIL
        doc = json.loads(out)
        assert doc["compact"] is False
        assert doc["compact_counterexample"] == [1, 3]

    def test_amalgamate(self, capsys, tmp_path):
        files = {}
        spaces = {
            "m": ("0,1,2,5,6", [[0, 5], [5, 0]]),
            "mp": ("0,1,2,5,6", [[0, 5, 1], [5, 0, 5], [1, 5, 0]]),
            "mpp": ("0,1,2,5,6", [[0, 5, 6], [5, 0, 2], [6, 2, 0]]),
            "l": ("0,5,6", [[0, 5], [5, 0]]),
        }
        for name, (values, d) in spaces.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(
                {"set": [int(v) for v in values.split(",")], "d": d}))
            files[name] = str(p)
        code, out = run(capsys, ["metric", "amalgamate", "--M", files["m"],
                                 "--Mp", files["mp"], "--Mpp", files["mpp"],
                                 "--L", files["l"]])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["amalgam"]["d"]) == 4

    def test_star(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "set": [0, 1, 2, 5, 6],
            "d": [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 2], [5, 5, 2, 0]],
        }))
        code, out = run(capsys, ["metric", "star", "--in", str(p)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["base_size"] == 4
        assert doc["classes"] == [[0, 1], [2, 3]]
        assert len(doc["space"]["d"]) == 6


class TestSelftest:
    def test_byte_identical_reports(self, capsys):
        code1, first = run(capsys, ["selftest"])
        code2, second = run(capsys, ["selftest"])
        assert code1 == code2 == EXIT_OK
        assert first == second

    def test_all_checks_pass(self, capsys):
        code, out = run(capsys, ["selftest"])
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert all(r["passed"] for r in doc["results"])


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert dispatch(["arrow", "check", "--C", "/nonexistent.json",
                         "--B", "/nonexistent.json", "--A", "/nonexistent.json",
                         "-k", "2", "-t", "1"]) == EXIT_USAGE

    def test_bad_distance_set(self, capsys):
        assert dispatch(["metric", "analyze", "--set", "1,0"]) == EXIT_USAGE


class TestBadInputIsUsageError:
    """Bad input exits 64 with one ``error:`` line, never a traceback."""

    def usage_error(self, capsys, argv):
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_arrow_signature_mismatch(self, chain_files, capsys, tmp_path):
        graph = tmp_path / "k3.json"
        graph.write_text(structure_to_json(catalog.complete_graph(3)))
        self.usage_error(capsys, ["arrow", "check", "--C", str(graph),
                                  "--B", chain_files[3], "--A", chain_files[2],
                                  "-k", "2", "-t", "1"])

    def test_zero_colors(self, chain_files, capsys):
        self.usage_error(capsys, ["arrow", "check", "--C", chain_files[6],
                                  "--B", chain_files[3], "--A", chain_files[2],
                                  "-k", "0", "-t", "1"])

    def test_negative_segment_size(self, capsys):
        self.usage_error(capsys, ["universe", "gen", "--kind", "rado",
                                  "-n", "-3"])

    def test_audit_segment_below_max_size(self, capsys):
        self.usage_error(capsys, ["universe", "audit", "--kind", "rado",
                                  "--class", "graphs", "--max-size", "3",
                                  "-N", "2"])

    @pytest.mark.parametrize("argv", [
        ["fraisse", "check", "--class", "graphs", "--property", "AP",
         "--max-size", "-1"],
        ["fraisse", "check", "--class", "graphs", "--property", "AP",
         "--max-size", "2", "--amalgam-bound", "-1"],
        ["fraisse", "check", "--class", "graphs", "--property", "AP",
         "--max-size", "2", "--amalgam-bound", "0"],
        ["universe", "audit", "--kind", "rado", "--class", "graphs",
         "--max-size", "-2", "-N", "4"],
    ], ids=["fraisse-negative-max-size", "negative-amalgam-bound",
            "zero-amalgam-bound", "audit-negative-max-size"])
    def test_out_of_range_size(self, capsys, argv):
        self.usage_error(capsys, argv)

    def test_missing_config_file(self, chain_files, capsys, tmp_path):
        self.usage_error(capsys, ["--config", str(tmp_path / "missing.cfg"),
                                  "arrow", "check", "--C", chain_files[6],
                                  "--B", chain_files[3], "--A", chain_files[2],
                                  "-k", "2", "-t", "1"])

    def test_non_integer_budget_in_config(self, chain_files, capsys, tmp_path):
        cfg = tmp_path / "forge.cfg"
        cfg.write_text("budget=abc\n")
        self.usage_error(capsys, ["--config", str(cfg), "arrow", "check",
                                  "--C", chain_files[6], "--B", chain_files[3],
                                  "--A", chain_files[2], "-k", "2", "-t", "1"])

    def test_non_integer_budget_in_env(self, chain_files, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEY_FORGE_BUDGET", "abc")
        self.usage_error(capsys, ["arrow", "check", "--C", chain_files[6],
                                  "--B", chain_files[3], "--A", chain_files[2],
                                  "-k", "2", "-t", "1"])


    @staticmethod
    def chain3_doc(**changes):
        doc = structures.structure_to_dict(catalog.chain(3))
        doc.update(changes)
        return doc

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"size": 2},
        chain3_doc(size="3"),
        chain3_doc(size=True, relations={}),
        chain3_doc(relations={"lt": [[0, "1"], [0, 2], [1, 2]]}),
        chain3_doc(relations={"lt": [[0, 1.0], [0, 2], [1, 2]]}),
        chain3_doc(relations={"lt": 5}),
        chain3_doc(signature=[{"name": "lt", "arity": "2", "tag": "linear-order"}]),
    ], ids=["list", "no-signature", "string-size", "bool-size", "string-in-tuple",
            "float-in-tuple", "relation-not-a-list", "string-arity"])
    def test_arrow_structure_of_the_wrong_shape(self, chain_files, capsys,
                                                tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.usage_error(capsys, ["arrow", "check", "--C", str(bad),
                                  "--B", chain_files[3], "--A", chain_files[2],
                                  "-k", "2", "-t", "1"])

    def test_unwritable_witness_out(self, chain_files, capsys, tmp_path):
        self.usage_error(capsys, ["arrow", "check", "--C", chain_files[5],
                                  "--B", chain_files[3], "--A", chain_files[2],
                                  "-k", "2", "-t", "1", "--witness-out",
                                  str(tmp_path / "missing" / "w.json")])

    @pytest.mark.parametrize("command", [
        ["fraisse", "check", "--class", "chains", "--property", "AP",
         "--max-size", "2"],
        ["universe", "gen", "--kind", "rado", "-n", "4"],
    ], ids=["fraisse-check", "universe-gen"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dot_is_no_output_format(self, capsys, tmp_path, command, source):
        cfg = tmp_path / "forge.cfg"
        cfg.write_text("format=dot\n")
        head = (["--format", "dot"] if source == "flag"
                else ["--config", str(cfg)])
        self.usage_error(capsys, head + command)

    def test_unwritable_gen_out(self, capsys, tmp_path):
        self.usage_error(capsys, ["universe", "gen", "--kind", "rado", "-n", "4",
                                  "--out", str(tmp_path / "missing" / "g.json")])

    def metric_file(self, tmp_path, name, d, values=(0, 1, 2, 5, 6)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"set": list(values), "d": d}))
        return str(path)

    def test_metric_amalgamate_map_past_the_end(self, capsys, tmp_path):
        # the shared space is taken as the first points of each side, so a
        # 3-point M cannot map into a 2-point Mp
        three = self.metric_file(tmp_path, "three", [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
        two = self.metric_file(tmp_path, "two", [[0, 5], [5, 0]])
        self.usage_error(capsys, ["metric", "amalgamate", "--M", three,
                                  "--Mp", two, "--Mpp", three, "--L", two])

    @pytest.mark.parametrize("values", ["0", "0,1/0"],
                             ids=["no-positive-value", "zero-denominator"])
    def test_metric_analyze_bad_set(self, capsys, values):
        self.usage_error(capsys, ["metric", "analyze", "--set", values])

    @pytest.mark.parametrize("doc", [
        {"set": [0, 1, 2, 5, 6], "d": [[0, "1/0"], ["1/0", 0]]},
        {"set": [0, 1, 2, 5, 6], "d": [[0, "x"], ["x", 0]]},
        {"set": [0, 1, 2, 5, 6], "d": [[0, True], [True, 0]]},
        {"d": [[0, 1], [1, 0]]},
        {"set": [0, 1, 2, 5, 6], "d": [[0, 1, 1], [1, 0, 1], [1]]},
    ], ids=["zero-denominator", "malformed", "bool", "no-set", "ragged"])
    def test_metric_star_bad_file(self, capsys, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        self.usage_error(capsys, ["metric", "star", "--in", str(path)])

    def diagram_file(self, tmp_path, tops):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps({
            "shape": {"top": len(tops), "bottom": 0, "arrows": []},
            "top_objects": [structures.structure_to_dict(t) for t in tops],
            "bottom_objects": [],
            "arrow_maps": [],
        }))
        return str(path)

    @staticmethod
    def span_doc():
        """Two copies of K2 glued at a point: a valid one-span diagram."""
        k2 = structures.structure_to_dict(catalog.complete_graph(2))
        point = structures.structure_to_dict(catalog.graph(1, []))
        return {"shape": {"top": 2, "bottom": 1, "arrows": [[0, 0], [0, 1]]},
                "top_objects": [k2, k2], "bottom_objects": [point],
                "arrow_maps": [[0], [0]]}

    @pytest.mark.parametrize("change", [
        lambda doc: [],
        lambda doc: {**doc, "top_objects": [[1]]},
        lambda doc: {**doc, "arrow_maps": 5},
        lambda doc: {**doc, "shape": {**doc["shape"], "top": "1"}},
        lambda doc: {**doc, "bottom_objects": []},
    ], ids=["list", "top-object-not-a-structure", "maps-not-a-list",
            "string-top", "fewer-bottom-objects-than-the-shape"])
    def test_diagram_of_the_wrong_shape(self, capsys, tmp_path, change):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(change(self.span_doc())))
        self.usage_error(capsys, ["diagram", "cocone", "--in", str(path),
                                  "--max-tip", "4"])

    def test_diagram_negative_max_tip(self, capsys, tmp_path):
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(self.span_doc()))
        self.usage_error(capsys, ["diagram", "cocone", "--in", str(path),
                                  "--max-tip", "-1"])

    def test_diagram_objects_of_two_signatures(self, capsys, tmp_path):
        path = self.diagram_file(tmp_path, [catalog.complete_graph(2),
                                            catalog.chain(2)])
        self.usage_error(capsys, ["diagram", "cocone", "--in", path,
                                  "--max-tip", "4"])

    def test_diagram_without_top_objects(self, capsys, tmp_path):
        self.usage_error(capsys, ["diagram", "cocone", "--in",
                                  self.diagram_file(tmp_path, []),
                                  "--max-tip", "4"])

    def test_diagram_class_of_another_signature(self, capsys, tmp_path):
        path = self.diagram_file(tmp_path, [catalog.complete_graph(2)] * 2)
        self.usage_error(capsys, ["diagram", "cocone", "--in", path,
                                  "--max-tip", "4", "--class", "tournaments"])


class TestGoldenDocFixtures:
    """The command lines shown in the README, pinned byte-for-byte."""

    def test_universe_gen_rado_4(self, capsys):
        code, out = run(capsys, ["universe", "gen", "--kind", "rado", "-n", "4"])
        assert code == EXIT_OK
        golden = json.dumps({
            "relations": {"E": [[0, 1], [0, 3], [1, 0], [1, 2], [1, 3],
                                [2, 1], [3, 0], [3, 1]]},
            "signature": [{"arity": 2, "name": "E",
                           "tag": "symmetric-irreflexive"}],
            "size": 4,
        }, sort_keys=True, indent=2) + "\n"
        assert out == golden

    def test_metric_analyze_compact_set(self, capsys):
        code, out = run(capsys, ["metric", "analyze", "--set", "0,1,2,5,6"])
        assert code == EXIT_OK
        golden = json.dumps({
            "blocks": [[0], [1, 2], [5, 6]],
            "check": "distance-set",
            "compact": True,
            "compact_counterexample": None,
            "four_values": True,
            "four_values_counterexample": None,
            "jumps": [0, 2, 6],
            "set": [0, 1, 2, 5, 6],
        }, sort_keys=True, indent=2) + "\n"
        assert out == golden
