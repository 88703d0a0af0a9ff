import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cupweb
from cupweb.cli import main, tableau_graph_json
from cupweb.resolution import sinks_to_json

WITNESS_T = '{"top": [1, 2, 4, 5, 7], "bottom": [3, 6, 8, 9, 10]}'
WITNESS_S = '{"top": [1, 3, 4, 6, 9], "bottom": [2, 5, 7, 8, 10]}'
FOUR_ARCS = '{"arcs": [[1,5],[2,6],[3,7],[4,8]]}'  # 16 sinks, a tree of 31 nodes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _records(graph):
    """The enumerate command's JSON document, built from the library."""
    return [{"top": list(t.top), "bottom": list(t.bottom),
             "rank": cupweb.rank(t, graph), "word": t.row_word()}
            for t in graph.vertices]


class TestEnumerate:
    def test_json_two_records(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert records[0] == {
            "top": [1, 3], "bottom": [2, 4], "rank": 0, "word": "1 3 / 2 4",
        }

    def test_single_record(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "1")
        assert code == 0
        assert len(json.loads(out)) == 1

    def test_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "-n", "0"])
        assert info.value.code == 2

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "-n", "abc"])
        assert info.value.code == 2
        assert "'abc' is not an integer" in capsys.readouterr().err

    def test_over_limit_rejected(self, capsys):
        code, _, err = run(capsys, "enumerate", "-n", "9")
        assert code == 2
        assert "limit" in err

    def test_force_lifts_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "9", "--force",
                           "--format", "ascii")
        assert code == 0
        assert len(out.strip().split("\n")) == 4862

    def test_ascii_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "2", "--format", "ascii")
        assert code == 0
        assert out.splitlines() == ["rank=0  1 3 / 2 4", "rank=1  1 2 / 3 4"]


class TestGraphCommand:
    def test_dot_five_nodes(self, capsys):
        code, out, _ = run(capsys, "graph", "-n", "3", "--format", "dot")
        assert code == 0
        node_lines = [ln for ln in out.splitlines() if "label" in ln and "->" not in ln]
        edge_lines = [ln for ln in out.splitlines() if "->" in ln]
        assert len(node_lines) == 5
        assert all('label="s_' in ln for ln in edge_lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "-n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 2
        assert data["edges"] == [[0, 1, 2]]


class TestMatrixCommands:
    def test_csv_body(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "2", "--format", "csv")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body == ["1,1", "0,1"]

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "1", "--format", "csv")
        assert code == 0
        assert [ln for ln in out.splitlines() if not ln.startswith("#")] == ["1"]

    def test_json_n3_column_sum(self, capsys):
        code, out, _ = run(capsys, "matrix", "-n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["entries"]) == 5
        col = data["index"].index({"top": [1, 2, 4], "bottom": [3, 5, 6]})
        assert sum(row[col] for row in data["entries"]) == 4

    def test_inverse_csv(self, capsys):
        code, out, _ = run(capsys, "inverse", "-n", "2", "--format", "csv")
        assert code == 0
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body == ["1,-1", "0,1"]

    @pytest.mark.parametrize("argv, document", [
        (["matrix", "-n", "3"], lambda: cupweb.transition_matrix(3).to_json()),
        (["inverse", "-n", "3"],
         lambda: cupweb.inverse_matrix(cupweb.transition_matrix(3)).to_json()),
        (["enumerate", "-n", "3"], lambda: _records(cupweb.build_tableau_graph(3))),
        (["graph", "-n", "3"],
         lambda: tableau_graph_json(cupweb.build_tableau_graph(3))),
        (["resolve", '{"arcs": [[1,3],[2,5],[4,6]]}'], lambda: sinks_to_json(
            6, cupweb.resolve_full(cupweb.Matching([(1, 3), (2, 5), (4, 6)])))),
    ], ids=["matrix", "inverse", "enumerate", "graph", "resolve"])
    def test_json_is_the_matrix_export(self, capsys, argv, document):
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert out == json.dumps(document(), indent=2) + "\n"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "matrix", "-n", "3", "--format", "json")
        _, second, _ = run(capsys, "matrix", "-n", "3", "--format", "json")
        assert first == second


class TestResolve:
    def test_four_sinks(self, capsys):
        code, out, _ = run(
            capsys, "resolve", '{"n2": 6, "arcs": [[1,3],[2,5],[4,6]]}'
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["sinks"]) == 4
        assert all(s["multiplicity"] == 1 for s in data["sinks"])

    def test_noncrossing_identity(self, capsys):
        code, out, _ = run(capsys, "resolve", '{"arcs": [[1,2],[3,4]]}')
        assert code == 0
        data = json.loads(out)
        assert data["sinks"] == [
            {"arcs": [[1, 2], [3, 4]], "multiplicity": 1}
        ]

    def test_single_crossing(self, capsys):
        code, out, _ = run(capsys, "resolve", '{"arcs": [[1,3],[2,4]]}')
        assert code == 0
        assert len(json.loads(out)["sinks"]) == 2

    def test_dot_graph(self, capsys):
        code, out, _ = run(
            capsys, "resolve", '{"arcs": [[1,3],[2,4]]}', "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph resolution {")

    def test_scripted_strategy(self, capsys):
        code, out, _ = run(
            capsys, "resolve", '{"arcs": [[1,3],[2,5],[4,6]]}',
            "--strategy", "scripted:1,0",
        )
        assert code == 0
        assert len(json.loads(out)["sinks"]) == 4

    @pytest.mark.parametrize("strategy", ["scripted:", "scripted:1,,2", "scripted:1,x"])
    def test_malformed_script_names_the_scripted_form(self, capsys, strategy):
        for fmt in ("json", "dot"):
            code, out, err = run(capsys, "resolve", FOUR_ARCS, "--format", fmt,
                                 "--strategy", strategy)
            assert (code, out) == (2, "")
            assert err == (f"error: unknown strategy {strategy!r}; use 'first' or "
                           "'scripted:i,j,...' with integers i, j, ...\n")

    @pytest.mark.parametrize("index", [-1, 6, 13])
    def test_script_index_is_taken_modulo_the_crossing_count(self, capsys, index):
        # FOUR_ARCS has 6 crossings; each node reads the one index modulo its own count.
        m = cupweb.Matching.from_json(json.loads(FOUR_ARCS))
        picked = cupweb.build_resolution_graph(
            m, lambda _, found: found[index % len(found)])
        code, out, _ = run(capsys, "resolve", FOUR_ARCS, "--format", "dot",
                           "--strategy", f"scripted:{index}")
        assert (code, out) == (0, cupweb.resolution_graph_dot(picked))
        if index == -1:
            assert picked.edges[0][1].crossing == cupweb.crossings(m)[-1]
            assert out != cupweb.resolution_graph_dot(cupweb.build_resolution_graph(m))

    def test_help_says_an_index_is_taken_modulo(self, capsys):
        with pytest.raises(SystemExit):
            main(["resolve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("each index is taken modulo that node's crossing count, "
                "so -1 picks the last") in text

    def test_oversized_tree_is_refused_with_the_kernel_message(self, capsys):
        # Both formats trip at the same budget, with the same one line.
        for fmt in ("dot", "json"):
            code, out, err = run(capsys, "resolve", FOUR_ARCS, "--format", fmt,
                                 "--node-budget", "30")
            assert (code, out) == (2, "")
            assert err == "error: resolution exceeded its node budget\n"
            code, out, _ = run(capsys, "resolve", FOUR_ARCS, "--format", fmt,
                               "--node-budget", "31")
            assert code == 0 and out

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "resolve", "{not json")
        assert code == 2
        assert "error" in err

    def test_bad_matching(self, capsys):
        code, _, err = run(capsys, "resolve", '{"arcs": [[1,1],[2,3]]}')
        assert code == 2


class TestWitness:
    def test_walkthrough(self, capsys):
        code, out, _ = run(capsys, "witness", WITNESS_T, WITNESS_S)
        assert code == 0
        data = json.loads(out)
        assert len(data["moves"]) == 6
        assert [m["kind"] for m in data["moves"]] == ["VV", "VV", "VV", "V", "V", "VV"]
        assert data["final"]["arcs"] == [[1, 2], [3, 8], [4, 5], [6, 7], [9, 10]]
        assert data["valid"] is True
        assert len(data["intermediates"]) == 7

    def test_identical_pair(self, capsys):
        code, out, _ = run(
            capsys, "witness",
            '{"top": [1, 3], "bottom": [2, 4]}',
            '{"top": [1, 3], "bottom": [2, 4]}',
        )
        assert code == 0
        assert json.loads(out)["moves"] == []

    def test_reversed_pair_rejected(self, capsys):
        code, _, err = run(capsys, "witness", WITNESS_S, WITNESS_T)
        assert code == 2
        assert "column 2" in err


class TestVerify:
    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "4", "all")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 4
        assert all(r["passed"] for r in reports)

    def test_trivial(self, capsys):
        code, _, _ = run(capsys, "verify", "-n", "1", "all")
        assert code == 0

    @pytest.mark.parametrize("which", ["unitriangular", "positivity", "psi"])
    @pytest.mark.parametrize("n", ["1", "3"])
    def test_self_test_fails(self, capsys, which, n):
        code, out, _ = run(capsys, "verify", "-n", n, which, "--self-test")
        assert code == 1
        reports = json.loads(out)
        assert not reports[0]["passed"]

    def test_exhausted_step_budget_is_bad_input(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "4", "psi", "--step-budget", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_step_budget_trip_point(self, capsys):
        # 4,490 rewrite steps straighten every cup at n = 7 in one sweep.
        psi = ("verify", "-n", "7", "psi", "--step-budget")
        code, out, _ = run(capsys, *psi, "4490")
        assert code == 0 and json.loads(out)[0]["passed"]
        code, out, err = run(capsys, *psi, "4489")
        assert code == 2 and out == ""
        assert err == "error: straightening exceeded 4489 rewrite steps\n"

    def test_self_test_all_fails(self, capsys):
        code, _, _ = run(capsys, "verify", "-n", "2", "all", "--self-test")
        assert code == 1

    def test_self_test_conjecture_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "-n", "2", "conjecture",
                           "--self-test")
        assert code == 2
        assert "self-test" in err

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "3", "conjecture")
        assert code == 0
        report = json.loads(out)[0]
        names = {c["name"] for c in report["checks"]}
        assert "dominates-implies-comparable" in names

    def test_timestamp_isolated_to_reports(self, capsys):
        _, out, _ = run(capsys, "verify", "-n", "2", "positivity")
        report = json.loads(out)[0]
        assert "timestamp" in report and report["timestamp"]


class TestPinnedReports:
    """Outputs pinned by digest, with the reports' time fields masked."""

    @pytest.mark.parametrize("argv, code, size, digest", [
        (["verify", "-n", "7", "all"], 0, 1281,
         "8697cae08e0884b0a1c00496141b5c1abe4883dc7e0bb05f7a3ec95b343f0338"),
        (["verify", "-n", "4", "all", "--self-test"], 1, 1466,
         "e5688387fa864dc31d22c7d901a9815fe79283f1c12fbda8648826150becd35d"),
        (["matrix", "-n", "7", "--format", "json"], 0, 1756075,
         "6d9cdabe77a1f7b829e74f675fea7a8ec9403432f30f63be237aa99f29e5b2e4"),
        (["inverse", "-n", "7", "--format", "json"], 0, 1761240,
         "eb2771b11be034856d3c07b05ff8c4d46fd5c9b0b30729d8ace914eeb69c889e"),
    ], ids=["verify-7-all", "verify-4-all-self-test", "matrix-7-json", "inverse-7-json"])
    def test_digest(self, capsys, argv, code, size, digest):
        got, out, err = run(capsys, *argv)
        out = re.sub(r'"elapsed_seconds": [^,}\n]*', '"elapsed_seconds": 0', out)
        out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out)
        body = out.encode()
        assert (got, err) == (code, "")
        assert (len(body), hashlib.sha256(body).hexdigest()) == (size, digest)


class TestPinnedDot:
    """DOT exports pinned by digest: one layout writes every graph."""

    @pytest.mark.parametrize("argv, size, digest", [
        (["graph", "-n", "5", "--format", "dot"], 4020,
         "33327ce314caa3f4cab4b7104cbb7ccf1908cf11cd279208b40e07458d2fd36e"),
        (["render", '{"tableau_graph": 4}', "--format", "dot"], 1076,
         "a6c5b46ffdd42cd38f863296c391728e5348937a75aa00feafe923029a313ef0"),
        (["resolve", FOUR_ARCS, "--format", "dot"], 1975,
         "3e18d6d1078c282e646998455e2199bcfd6be6be51171125e37d6c98169ec9ce"),
        (["resolve", FOUR_ARCS, "--format", "dot", "--strategy", "scripted:1,0,2"], 1971,
         "cab3b061a6e7cae36d019e5208f53a1df55975a840fe35c38a26851ae904a213"),
    ], ids=["graph-5", "render-tableau-graph-4", "resolve-first", "resolve-scripted"])
    def test_digest(self, capsys, argv, size, digest):
        code, out, err = run(capsys, *argv)
        body = out.encode()
        assert (code, err) == (0, "")
        assert (len(body), hashlib.sha256(body).hexdigest()) == (size, digest)


class TestRender:
    def test_five_cups_ascii(self, capsys):
        code, out, _ = run(
            capsys, "render",
            '{"arcs": [[1,2],[3,8],[4,5],[6,7],[9,10]]}',
        )
        assert code == 0
        assert out.count("\\") == 5 and out.count("/") == 5

    def test_adjacent_cups(self, capsys):
        code, out, _ = run(capsys, "render", '{"arcs": [[1,2],[3,4],[5,6]]}')
        assert code == 0
        assert out.splitlines()[1].count("\\__/") == 3

    def test_tikz(self, capsys):
        code, out, _ = run(
            capsys, "render", '{"arcs": [[1,2]]}', "--format", "tikz"
        )
        assert code == 0
        assert out.startswith("\\documentclass")

    def test_tableau_graph_dot(self, capsys):
        code, out, _ = run(
            capsys, "render", '{"tableau_graph": 3}', "--format", "dot"
        )
        assert code == 0
        node_lines = [ln for ln in out.splitlines()
                      if "label" in ln and "->" not in ln]
        assert len(node_lines) == 5

    @pytest.mark.parametrize("size", [0, 9])
    def test_tableau_graph_outside_the_limit_points_to_graph(self, capsys, size):
        # render takes no --max-n or --force, so its error names a command that does.
        code, out, err = run(capsys, "render", f'{{"tableau_graph": {size}}}',
                             "--format", "dot")
        assert (code, out) == (2, "")
        assert err == ("error: tableau_graph size must be from 1 to 8; "
                       "cupweb graph -n N --format dot --force draws larger graphs\n")

    def test_bad_object(self, capsys):
        code, _, err = run(capsys, "render", '{"boxes": 3}')
        assert code == 2

    def test_format_mismatch(self, capsys):
        code, _, _ = run(capsys, "render", '{"arcs": [[1,2]]}',
                         "--format", "dot")
        assert code == 2

    def test_tableau_graph_renders_only_as_dot(self, capsys):
        code, out, err = run(capsys, "render", '{"tableau_graph": 3}', "--format", "ascii")
        assert (code, out, err) == (2, "", "error: tableau graphs render as dot\n")


class TestMalformedShapes:
    """JSON of the wrong shape is bad input: exit 2 and a one-line error."""

    MATCHING = 'error: a matching must be {"arcs": [[a, b], ...]} with integer dots a, b\n'
    TABLEAU = ('error: a tableau must be {"top": [...], "bottom": [...]} '
               'with integer entries\n')
    OK_TABLEAU = '{"top": [1, 2], "bottom": [3, 4]}'

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resolve", "{}"], MATCHING),
            (["resolve", "[[1, 2]]"], MATCHING),
            (["resolve", '{"arcs": [[1, 2, 3], [4, 5, 6]]}'], MATCHING),
            (["resolve", '{"arcs": [["a", 1], [2, 3]]}'], MATCHING),
            (["render", '{"arcs": [[1, [2]]]}'], MATCHING),
            (["witness", '{"top": [1, 2]}', OK_TABLEAU], TABLEAU),
            (["witness", OK_TABLEAU, "[1, 2]"], TABLEAU),
            (["witness", '{"top": ["a", 2], "bottom": [3, 4]}', OK_TABLEAU], TABLEAU),
        ],
        ids=["no-arcs", "list-root", "triple-arcs", "str-dot", "list-dot",
             "no-bottom", "list-tableau", "str-entry"],
    )
    def test_message_names_the_expected_shape(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["resolve", '{"arcs": [1, 2]}'],
            ["resolve", '{"arcs": [[1, "x"], [2, 3]]}'],
            ["resolve", '{"arcs": null}'],
            ["resolve", "[[1,2]]"],
            ["witness", '{"top": 1, "bottom": 2}', '{"top": [1, 3], "bottom": [2, 4]}'],
            ["render", '{"tableau_graph": [3]}', "--format", "dot"],
            ["resolve", '{"arcs": [[true, 3], [2, 4]]}'],
            ["witness", '{"top": [true, 2], "bottom": [3, 4]}',
             '{"top": [1, 2], "bottom": [3, 4]}'],
            ["render", '{"arcs": [[1.0, 2], [3, 4]]}'],
            ["render", '{"tableau_graph": true}', "--format", "dot"],
            ["render", '{"tableau_graph": 2.7}', "--format", "dot"],
            ["render", '{"tableau_graph": "2"}', "--format", "dot"],
            ["resolve", '{"arcs": [[1, 3], [2, 4]], "n2": 4.0}'],
        ],
        ids=["int-arcs", "str-dot", "null-arcs", "list-root", "int-rows", "list-size",
             "bool-dot", "bool-top", "float-dot", "bool-size", "float-size",
             "str-size", "float-n2"],
    )
    def test_exit_2_without_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deep_nesting(self, capsys, monkeypatch, tmp_path, source):
        deep = "[" * 100_000  # json raises RecursionError on this
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(deep)
            arg = f"@{path}"
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
            arg = "-"
        code, out, err = run(capsys, "resolve", arg)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestOutputFiles:
    def test_output_flag(self, tmp_path, capsys):
        target = tmp_path / "matrix.csv"
        code, out, _ = run(capsys, "matrix", "-n", "2", "-o", str(target))
        assert code == 0
        assert out == ""
        assert "1,1" in target.read_text()

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "resolve", f"@{tmp_path / 'missing.json'}")
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "matrix", "-n", "2", "-o", str(target))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_full_device(self, capsys, fmt):
        # At n = 5 the JSON outgrows the write buffer: the write fails mid-stream.
        code, out, err = run(capsys, "matrix", "-n", "5", "--format", fmt,
                             "-o", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_json_is_encoded_into_the_file(self, tmp_path):
        # The JSON is never held as one string: a joined text peaks near 10x the file.
        target = tmp_path / "m6.json"
        argv = ["matrix", "-n", "6", "--format", "json", "-o", str(target)]
        main(argv)  # builds M_6 and warms the parser: only the export is measured
        tracemalloc.start()
        try:
            main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * target.stat().st_size

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CUPWEB_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "matrix", "-n", "2", "-o", "out.csv")
        assert code == 0
        assert (tmp_path / "out.csv").exists()


def _checkout_env():
    """The environment of a subprocess that imports the same checkout as this run."""
    src = str(Path(cupweb.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("argv", [["matrix", "-n", "7"],
                                  ["enumerate", "-n", "8", "--format", "ascii"]])
def test_broken_pipe_fails_the_command(argv):
    # Both texts outgrow the pipe buffer, so a write blocks until the read end
    # closes; unbuffered, the 100-byte read frees no room for the rest.
    proc = subprocess.Popen([sys.executable, "-m", "cupweb", *argv], bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_checkout_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert re.fullmatch(r"error: .*Broken pipe\n", err)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cupweb", "enumerate", "-n", "1"],
        capture_output=True, text=True, env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [
        {"top": [1], "bottom": [2], "rank": 0, "word": "1 / 2"}
    ]


def test_json_round_trips_through_cli(capsys):
    # emitted matchings re-parse to equal values
    code, out, _ = run(capsys, "resolve", '{"arcs": [[1,3],[2,5],[4,6]]}')
    assert code == 0
    from cupweb import Matching, resolve_full

    data = json.loads(out)
    rebuilt = {
        Matching(s["arcs"]): s["multiplicity"] for s in data["sinks"]
    }
    assert rebuilt == resolve_full(Matching([(1, 3), (2, 5), (4, 6)]))
