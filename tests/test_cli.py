"""End-to-end command-line tests: golden text, json round trips, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from graphideals import cli
from graphideals.classify import FAMILIES
from graphideals.cli import (
    Report,
    build_parser,
    main,
    render,
    run,
)
from graphideals.decompose import IrreducibleComponent
from graphideals.verify import exhaustive_weighted_graphs

P2 = {
    "vertices": ["v1", "v2", "v3"],
    "edges": [
        {"u": "v1", "v": "v2", "w": 2},
        {"u": "v2", "v": "v3", "w": 5},
    ],
}

C5 = {
    "vertices": ["v1", "v2", "v3", "v4", "v5"],
    "edges": [
        {"u": "v1", "v": "v2", "w": 2},
        {"u": "v2", "v": "v3", "w": 5},
        {"u": "v3", "v": "v4", "w": 3},
        {"u": "v4", "v": "v5", "w": 4},
        {"u": "v5", "v": "v1", "w": 2},
    ],
}

C5_MIXED = {
    "vertices": ["v1", "v2", "v3", "v4", "v5"],
    "edges": [
        {"u": "v1", "v": "v2", "w": 2},
        {"u": "v2", "v": "v3", "w": 5},
        {"u": "v3", "v": "v4", "w": 3},
        {"u": "v4", "v": "v5", "w": 4},
        {"u": "v5", "v": "v1", "w": 1},
    ],
}


@pytest.fixture
def p2(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(P2))
    return str(path)


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(C5))
    return str(path)


@pytest.fixture
def c5_mixed(tmp_path):
    path = tmp_path / "c5m.json"
    path.write_text(json.dumps(C5_MIXED))
    return str(path)


def report_from_json(text):
    data = json.loads(text)
    return Report(data["status"], data["payload"], data["diagnostics"])


def invoke(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if stdin is None:
            code = main(argv)
        else:
            import sys

            old = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                code = main(argv)
            finally:
                sys.stdin = old
    return code, out.getvalue(), err.getvalue()


class TestIdealCommand:
    def test_text(self, p2):
        code, out, _ = invoke(["ideal", p2])
        assert code == 0
        assert out == "X1^2*X2^2\nX2^5*X3^5\n"

    def test_single_edge(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(
            json.dumps(
                {"vertices": ["v1", "v2"], "edges": [{"u": "v1", "v": "v2", "w": 2}]}
            )
        )
        code, out, _ = invoke(["ideal", str(path)])
        assert out == "X1^2*X2^2\n"

    def test_edgeless_zero(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"vertices": ["v1"], "edges": []}))
        code, out, _ = invoke(["ideal", str(path)])
        assert code == 0
        assert out == "0 (zero ideal)\n"

    def test_stdin(self):
        code, out, _ = invoke(["ideal", "-"], stdin=json.dumps(P2))
        assert code == 0
        assert "X1^2*X2^2" in out


class TestRadicalCommand:
    def test_text(self, p2):
        code, out, _ = invoke(["radical", p2])
        assert code == 0
        assert out == "X2*X3\nX1*X2\n"


class TestDecomposeCommand:
    def test_covers_default(self, p2):
        code, out, _ = invoke(["decompose", p2])
        assert code == 0
        assert out == "(X1^2, X2^5)\n(X1^2, X3^5)\n(X2^2)\n"

    def test_split_same_components(self, p2):
        _, covers_out, _ = invoke(["decompose", p2, "--method", "covers"])
        _, split_out, _ = invoke(["decompose", p2, "--method", "split"])
        assert covers_out == split_out

    def test_check_flag(self, p2):
        code, out, _ = invoke(["decompose", p2, "--check"])
        assert code == 0
        assert out.endswith("check: methods agree\n")

    def test_check_disagreement_exits_3(self, p2, monkeypatch):
        from graphideals.decompose import Decomposition

        def broken(ideal, max_components=None):
            return Decomposition(ideal.context, ())

        monkeypatch.setattr(cli, "split_decompose", broken)
        code, out, err = invoke(["decompose", p2, "--check"])
        assert code == 3
        assert "disagree" in err

    def test_split_skips_covers_route(self, p2, monkeypatch):
        def refuse(graph):
            raise AssertionError("covers route ran for --method split")

        monkeypatch.setattr(cli, "cover_decomposition", refuse)
        code, out, _ = invoke(["decompose", p2, "--method", "split"])
        assert code == 0
        assert out == "(X1^2, X2^5)\n(X1^2, X3^5)\n(X2^2)\n"

    def test_huge_weight_checked(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["v1", "v2", "v3"],
                    "edges": [
                        {"u": "v1", "v": "v2", "w": 10**20},
                        {"u": "v2", "v": "v3", "w": 1},
                    ],
                }
            )
        )
        code, out, _ = invoke(["decompose", str(path), "--check"])
        assert code == 0
        assert out == (
            "(X1^100000000000000000000, X3)\n"
            "(X2)\n"
            "(X2^100000000000000000000, X3)\n"
            "check: methods agree\n"
        )

    def test_split_on_deep_star(self, tmp_path):
        # the split route goes one level deeper per leaf; 497 leaves
        # overflowed the default recursion limit when it recursed
        leaves = [f"l{i}" for i in range(497)]
        doc = {
            "vertices": ["c"] + leaves,
            "edges": [{"u": "c", "v": x, "w": 1 + i % 3} for i, x in enumerate(leaves)],
        }
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["decompose", str(path), "--method", "split"])
        assert code == 0
        assert err == ""
        assert len(out.splitlines()) == 4

    def test_json_payload(self, p2):
        code, out, _ = invoke(["decompose", p2, "--format", "json"])
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["payload"]["components"] == [
            [["X1", 2], ["X2", 5]],
            [["X1", 2], ["X3", 5]],
            [["X2", 2]],
        ]
        assert doc["payload"]["irredundant"] is True


class TestCoversCommand:
    def test_text(self, p2):
        code, out, _ = invoke(["covers", p2])
        assert out == "{v1^2, v2^5}\n{v1^2, v3^5}\n{v2^2}\n"

    def test_edgeless_empty_cover(self, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
        assert invoke(["covers", str(path)]) == (0, "{}\n", "")

    def test_count_in_json(self, c5):
        _, out, _ = invoke(["covers", c5, "--format", "json"])
        doc = json.loads(out)
        assert doc["payload"]["count"] == len(doc["payload"]["covers"])

    def test_large_star(self, tmp_path):
        # far deeper than the default recursion limit
        leaves = [f"l{i}" for i in range(3000)]
        doc = {
            "vertices": ["c"] + leaves,
            "edges": [{"u": "c", "v": x, "w": 1 + i % 3} for i, x in enumerate(leaves)],
        }
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["covers", str(path), "--format", "json"])
        assert code == 0
        assert err == ""
        assert json.loads(out)["payload"]["count"] == 4


class TestMinimizeCommand:
    def test_removes_vertex(self, c5):
        code, out, _ = invoke(
            ["minimize", c5, "--cover", "v1:2,v2:5,v4:3,v5:2"]
        )
        assert code == 0
        assert out == "{v1^2, v2^5, v4^3}\n"

    def test_raises_weight(self, c5):
        _, out, _ = invoke(["minimize", c5, "--cover", "v1:2,v2:5,v4:2"])
        assert out == "{v1^2, v2^5, v4^3}\n"

    def test_non_cover_is_validation_error(self, c5):
        code, _, err = invoke(["minimize", c5, "--cover", "v1:3"])
        assert code == 2
        assert "error:" in err

    def test_unknown_vertex(self, c5):
        code, _, err = invoke(["minimize", c5, "--cover", "bogus:1"])
        assert code == 2

    def test_malformed_cover_option(self, c5):
        code, _, err = invoke(["minimize", c5, "--cover", "v1=2"])
        assert code == 1

    def test_duplicate_vertex(self, c5):
        code, out, err = invoke(["minimize", c5, "--cover", "v1:2,v1:3,v2:1"])
        assert (code, out, err) == (2, "", "error: cover vertices must be distinct\n")

    def test_parsed_cover_matches_validating_constructor(self):
        # after its own checks the parser builds with _of_powers
        rng = random.Random(251)
        for graph in exhaustive_weighted_graphs(4, weights=(1,)):
            names = list(graph.vertex_names)
            picked = rng.sample(names, rng.randint(1, len(names)))
            entries = [(name, rng.choice((1, 2, 10**20))) for name in picked]
            text = " , ".join(f"{name}:{w}" for name, w in entries)
            got = cli._parse_cover_option(graph, text)
            oracle = IrreducibleComponent(
                graph.context, [(names.index(n), w) for n, w in entries]
            )
            assert got.powers == oracle.powers, text
            assert got == oracle and hash(got) == hash(oracle)

    COLON_GRAPH = json.dumps(
        {
            "vertices": ["a:1", "b", "c"],
            "edges": [
                {"u": "a:1", "v": "b", "w": 3},
                {"u": "b", "v": "c", "w": 2},
            ],
        }
    )

    @pytest.mark.parametrize(
        "cover, expected",
        [
            # the weight follows the last colon
            ("a:1:3,c:2", (0, "{a:1^3, c^2}\n", "")),
            ("a:1:1,b:2", (0, "{b^2}\n", "")),
            ("b:2:", (2, "", "error: unknown vertex 'b:2'\n")),
            ("b:x", (1, "", "error: cover weight must be an integer, got 'x'\n")),
            ("b:0", (2, "", "error: cover weights must be positive\n")),
            (",", (1, "", "error: empty cover given\n")),
            # empty entries are skipped
            ("b:2,,c:1", (0, "{b^2}\n", "")),
            # ASCII digits only, as in the graph document
            ("b:1_0", (1, "", "error: cover weight must be an integer, got '1_0'\n")),
            ("b:+2", (1, "", "error: cover weight must be an integer, got '+2'\n")),
            ("b:\u0662", (1, "", "error: cover weight must be an integer, got '\u0662'\n")),
            ("b:-1", (2, "", "error: cover weights must be positive\n")),
            ("b: 2 ", (0, "{b^2}\n", "")),
        ],
    )
    def test_cover_option_entries(self, cover, expected):
        argv = ["minimize", "-", "--cover", cover]
        assert invoke(argv, stdin=self.COLON_GRAPH) == expected

    BLANK_GRAPH = json.dumps(
        {"vertices": [" a", "b"], "edges": [{"u": " a", "v": "b", "w": 2}]}
    )

    @pytest.mark.parametrize(
        "cover, expected",
        [
            (" a:2", (0, "{ a^2}\n", "")),
            # the stripped name only when no vertex has the exact one
            ("b:3, a:2", (0, "{ a^2}\n", "")),
            ("a:2", (2, "", "error: unknown vertex 'a'\n")),
        ],
    )
    def test_cover_option_exact_name(self, cover, expected):
        argv = ["minimize", "-", "--cover", cover]
        assert invoke(argv, stdin=self.BLANK_GRAPH) == expected

    TWIN_GRAPH = json.dumps(
        {
            "vertices": ["a", " a", "b"],
            "edges": [{"u": "a", "v": "b", "w": 1}, {"u": " a", "v": "b", "w": 1}],
        }
    )
    AMBIGUOUS = "error: ambiguous vertex name ' a': 'a' is a vertex too\n"

    @pytest.mark.parametrize(
        "cover, expected",
        [
            # " a" names one vertex exactly and "a" once stripped
            ("b:1, a:1", (2, "", AMBIGUOUS)),
            (" a:1,b:1", (2, "", AMBIGUOUS)),
            ("b:1,a:1", (0, "{b^1}\n", "")),
            ("a:1, a :1", (2, "", "error: cover vertices must be distinct\n")),
            ("b:1,  a:1", (0, "{b^1}\n", "")),
        ],
    )
    def test_cover_option_ambiguous_name(self, cover, expected):
        argv = ["minimize", "-", "--cover", cover]
        assert invoke(argv, stdin=self.TWIN_GRAPH) == expected


class TestUnmixedCommand:
    def test_unmixed_graph(self, c5):
        code, out, _ = invoke(["unmixed", c5])
        assert code == 0
        assert out == "unmixed: true\ncardinality: 3\n"

    def test_mixed_graph_shows_witnesses(self, c5_mixed):
        code, out, _ = invoke(["unmixed", c5_mixed])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "unmixed: false"
        assert len([l for l in lines if l.startswith("witness:")]) == 2

    def test_mixed_path(self, p2):
        _, out, _ = invoke(["unmixed", p2])
        assert "unmixed: false" in out


class TestClassifyCommand:
    def test_auto_on_cycle(self, c5):
        code, out, _ = invoke(["classify", c5])
        assert code == 0
        assert "family: cycle" in out
        assert "unmixed: true" in out
        assert "cohen_macaulay: yes" in out

    def test_family_override(self, c5):
        code, out, _ = invoke(["classify", c5, "--family", "cycle"])
        assert code == 0

    def test_family_mismatch_is_validation_error(self, p2):
        code, _, err = invoke(["classify", p2, "--family", "cycle"])
        assert code == 2
        assert "error:" in err

    def test_family_suspension(self, tmp_path):
        # whiskered edge v1-v2 plus the isolated edge v5-v6: the whisker
        # side of v5-v6 is free, the verdict is not
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6"],
                    "edges": [
                        {"u": "v1", "v": "v2", "w": 1},
                        {"u": "v1", "v": "v3", "w": 2},
                        {"u": "v2", "v": "v4", "w": 3},
                        {"u": "v5", "v": "v6", "w": 9},
                    ],
                }
            )
        )
        code, out, _ = invoke(
            ["classify", str(path), "--family", "suspension", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["unmixed"] is True
        assert payload["certificate"]["whiskers"] == {
            "v1": "v3",
            "v2": "v4",
            "v6": "v5",
        }

    def test_json_includes_certificate(self, c5):
        _, out, _ = invoke(["classify", c5, "--format", "json"])
        doc = json.loads(out)
        assert doc["payload"]["certificate"]["pattern"]["rotation"] == 0

    def test_family_option_agrees_with_auto(self, tmp_path):
        corpus = list(exhaustive_weighted_graphs(3, weights=(1, 2, 3)))
        assert len(corpus) == 69
        seen = set()
        for i, g in enumerate(corpus):
            path = tmp_path / f"g{i}.json"
            path.write_text(json.dumps(g.to_json_dict()))

            def classify(family):
                argv = ["classify", str(path), "--family", family]
                return run(build_parser().parse_args(argv))

            auto = classify("auto")
            assert auto.status == "ok"
            seen.add(auto.payload["family"])
            for family in FAMILIES:
                report = classify(family)
                if family == auto.payload["family"]:
                    assert report == auto
                elif report.status == "ok":
                    assert report.payload["family"] == family
                else:
                    assert report.payload["error_kind"] == "validation"
        assert seen == {"complete", "tree", "generic"}


class TestPrimesCommand:
    def test_minimal(self, p2):
        code, out, _ = invoke(["primes", p2, "--minimal"])
        assert out == "{v1, v3}\n{v2}\n"

    def test_assoc(self, p2):
        code, out, _ = invoke(["primes", p2, "--assoc"])
        assert out == "{v1, v2}\n{v1, v3}\n{v2}\n"

    def test_default_is_minimal(self, p2):
        _, out_default, _ = invoke(["primes", p2])
        _, out_minimal, _ = invoke(["primes", p2, "--minimal"])
        assert out_default == out_minimal

    def test_flags_mutually_exclusive(self, p2):
        code, _, err = invoke(["primes", p2, "--minimal", "--assoc"])
        assert code == 1


class TestVerifyCommand:
    def test_single_file(self, c5):
        code, out, _ = invoke(["verify", c5])
        assert code == 0
        assert out.rstrip().endswith("result: pass (1 graphs)")

    def test_random_corpus(self):
        code, out, _ = invoke(
            ["verify", "--random", "5", "--max-vertices", "3", "--seed", "1"]
        )
        assert code == 0
        assert "result: pass (5 graphs)" in out

    def test_random_corpus_payload_is_pinned(self):
        # every check's case count on a fixed corpus, so that a change to
        # how verify computes a check cannot drop any of its cases
        argv = ["verify", "--random", "60", "--seed", "4", "--max-vertices", "6"]
        code, out, err = invoke([*argv, "--format", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["status"], doc["diagnostics"]) == ("ok", [])
        cases = [
            ("cover-order-matches-ideal-order", 5881),
            ("cover-predicate-matches-containment", 567),
            ("decomposition-routes-agree", 60),
            ("minimization-reaches-minimal", 129),
            ("radical-flattens-weights", 60),
            ("uniform-weight-power-identity", 13),
            ("unmixedness-routes-agree", 60),
            ("unweighted-covers-lift", 137),
            ("unweighted-mixedness-persists", 17),
        ]
        assert doc["payload"] == {
            "checks": [
                {"name": name, "cases": n, "passed": True, "detail": ""}
                for name, n in cases
            ],
            "command": "verify",
            "graphs": 60,
            "passed": True,
        }

    def test_reproducible(self):
        args = ["verify", "--random", "4", "--max-vertices", "3", "--seed", "9"]
        assert invoke(args) == invoke(args)

    def test_needs_input_or_random(self):
        code, _, err = invoke(["verify"])
        assert code == 1

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--random", "0"),
            ("--random", "-2"),
            ("--max-vertices", "0"),
            ("--max-vertices", "-1"),
            ("--max-weight", "0"),
        ],
    )
    def test_corpus_bounds_below_one_are_usage_errors(self, option, value):
        argv = ["verify", "--random", "2", option, value]
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err == f"error: argument {option}: N must be at least 1, got {value}\n"
        argv[-1] = "1"
        code, out, _ = invoke(argv)
        assert code == 0
        assert "result: pass" in out

    @staticmethod
    def break_split_route(monkeypatch):
        from graphideals.decompose import Decomposition
        from graphideals import verify as verify_mod

        def broken(ideal, max_components=None):
            return Decomposition(ideal.context, ())

        monkeypatch.setattr(verify_mod, "split_decompose", broken)

    def test_failure_exits_3(self, c5, monkeypatch):
        self.break_split_route(monkeypatch)
        code, _, err = invoke(["verify", c5])
        assert code == 3
        assert "decomposition-routes-agree" in err

    def test_failure_json_report(self, c5, monkeypatch):
        _, passing, _ = invoke(["verify", c5, "--format", "json"])
        names = [c["name"] for c in json.loads(passing)["payload"]["checks"]]
        self.break_split_route(monkeypatch)
        code, out, err = invoke(["verify", c5, "--format", "json"])
        assert (code, out) == (3, "")
        doc = json.loads(err)
        assert doc["status"] == "error"
        payload = doc["payload"]
        assert sorted(payload) == ["checks", "command", "error_kind", "graphs", "passed"]
        assert (payload["command"], payload["error_kind"]) == ("verify", "oracle")
        assert (payload["graphs"], payload["passed"]) == (1, False)
        assert [c["name"] for c in payload["checks"]] == names
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert any(c["name"] == "decomposition-routes-agree" for c in failed)
        assert doc["diagnostics"] == [f"{c['name']}: {c['detail']}" for c in failed]


class TestErrorDiscipline:
    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_empty_path_is_parse_error(self, command):
        argv = [command, ""] + (["--cover", "v1:1"] if command == "minimize" else [])
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        if command == "verify":
            assert err == "error: verify needs a graph file or --random N\n"
        else:
            assert err == f"error: {command} needs a graph file\n"

    def test_missing_file_is_parse_error(self):
        code, _, err = invoke(["ideal", "/nonexistent/g.json"])
        assert code == 1
        assert err.startswith("error:")

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = invoke(["ideal", str(path)])
        assert code == 1

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"vertices": ["\xe9"], "edges": []}')
        code, out, err = invoke(["ideal", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1

    def test_deeply_nested_json_is_parse_error(self):
        code, out, err = invoke(["ideal", "-"], stdin="[" * 100000)
        assert (code, out) == (1, "")
        assert err == "error: invalid JSON in -: nested too deeply\n"

    def test_overlong_json_integer_is_parse_error(self):
        code, out, err = invoke(["ideal", "-"], stdin="[" + "1" * 5000 + "]")
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON in -: ")
        assert err.count("\n") == 1

    def test_non_string_endpoint_is_validation_error(self):
        doc = {"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": "b", "w": 1}]}
        code, out, err = invoke(["ideal", "-"], stdin=json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == "error: invalid graph: edge endpoint ['a'] is not a vertex\n"

    def test_invalid_graph_is_validation_error(self, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(
            json.dumps(
                {"vertices": ["a"], "edges": [{"u": "a", "v": "a", "w": 1}]}
            )
        )
        code, _, err = invoke(["ideal", str(path)])
        assert code == 2
        assert "loop" in err

    @pytest.mark.parametrize("command", ["covers", "primes"])
    def test_lone_surrogate_name_is_validation_error(self, command):
        # a real UTF-8 stdout, as a StringIO would print the name anyway
        doc = (
            '{"vertices": ["\\ud800", "b"], '
            '"edges": [{"u": "\\ud800", "v": "b", "w": 1}]}'
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "graphideals", command, "-"],
            input=doc.encode("ascii"),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == (
            b"error: invalid graph: vertex name '\\ud800' is not valid UTF-8\n"
        )

    @pytest.mark.parametrize("command", ["verify", "covers"])
    def test_closed_stdout_prints_no_traceback(self, tmp_path, command):
        # the reader is gone before the report is written, as when the
        # output is piped into `head -1`: no traceback, no "Exception
        # ignored" line, and the report's exit code
        n = 12
        doc = {
            "vertices": [f"v{i}" for i in range(n)],
            "edges": [
                {"u": f"v{i}", "v": f"v{(i + 1) % n}", "w": 1 + i % 3} for i in range(n)
            ],
        }
        path = tmp_path / "c12.json"
        path.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "graphideals", command, str(path)]
        argv += ["--format", "json"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                argv,
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_unknown_command_is_usage_error(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 1

    def test_component_cap_is_resource_error(self, p2):
        code, _, err = invoke(
            ["decompose", p2, "--method", "split", "--max-components", "1"]
        )
        assert code == 2
        assert "component" in err

    def test_component_cap_bounds_covers_route(self, c5):
        code, _, err = invoke(
            ["decompose", c5, "--method", "covers", "--max-components", "3"]
        )
        assert code == 2
        assert "component" in err
        code, out, _ = invoke(["decompose", c5, "--max-components", "6"])
        assert code == 0
        assert len(out.splitlines()) == 6

    @pytest.mark.parametrize("method", ["covers", "split"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_component_cap_below_one_is_usage_error(self, tmp_path, method, cap):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
        argv = ["decompose", str(path), "--method", method, "--max-components"]
        code, out, err = invoke(argv + [cap])
        assert (code, out) == (1, "")
        assert f"N must be at least 1, got {cap}" in err
        code, out, _ = invoke(argv + ["1"])
        assert (code, out) == (0, "0 (zero ideal)\n")

    def test_component_cap_not_an_int(self, p2):
        code, _, err = invoke(["decompose", p2, "--max-components", "x"])
        assert code == 1
        assert err == "error: argument --max-components: invalid int value: 'x'\n"

    def test_usage_error_is_json_in_json_mode(self, p2):
        argv = ["decompose", p2, "--max-components", "x", "--format", "json"]
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "status": "error",
            "payload": {"error_kind": "parse"},
            "diagnostics": ["argument --max-components: invalid int value: 'x'"],
        }

    def test_oversized_unit_error(self, tmp_path):
        # decomposing needs at least the zero ideal; an empty vertex list
        # is a schema violation, not a crash
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"vertices": [], "edges": []}))
        code, _, _ = invoke(["decompose", str(path)])
        assert code == 2


class TestRenderRoundTrip:
    COMMANDS = [
        ["ideal"],
        ["radical"],
        ["decompose"],
        ["decompose", "--method", "split"],
        ["covers"],
        ["unmixed"],
        ["classify"],
        ["primes", "--assoc"],
    ]

    @pytest.mark.parametrize("extra", COMMANDS, ids=lambda e: "-".join(e))
    def test_json_round_trips(self, c5, extra):
        argv = extra[:1] + [c5] + extra[1:] + ["--format", "json"]
        code, out, _ = invoke(argv)
        assert code == 0
        report = report_from_json(out)
        assert render(report, "json") == out.rstrip("\n")

    def test_text_deterministic(self, c5):
        first = invoke(["decompose", c5])
        second = invoke(["decompose", c5])
        assert first == second


class TestRunApi:
    def test_run_returns_report(self, p2):
        report = run(build_parser().parse_args(["ideal", p2]))
        assert isinstance(report, Report)
        assert report.status == "ok"
        assert report.payload == {
            "command": "ideal",
            "generators": ["X1^2*X2^2", "X2^5*X3^5"],
        }

    def test_error_report_carries_diagnostic(self):
        report = run(build_parser().parse_args(["ideal", "/nonexistent.json"]))
        assert report.status == "error"
        assert report.payload == {"command": "ideal", "error_kind": "parse"}
        assert report.diagnostics
