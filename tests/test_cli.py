"""End-to-end command-line tests: golden text, json round trips, exit codes."""

import contextlib
import io
import json

import pytest

from graphideals import cli
from graphideals.classify import FAMILIES
from graphideals.cli import (
    CommandRequest,
    Report,
    main,
    render,
    run,
)
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
                return run(CommandRequest("classify", str(path), {"family": family}))

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
        assert seen == {"complete", "path", "tree", "generic"}


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

    def test_failure_exits_3(self, c5, monkeypatch):
        from graphideals.decompose import Decomposition
        from graphideals import verify as verify_mod

        def broken(ideal, max_components=None):
            return Decomposition(ideal.context, ())

        monkeypatch.setattr(verify_mod, "split_decompose", broken)
        code, _, err = invoke(["verify", c5])
        assert code == 3
        assert "decomposition-routes-agree" in err


class TestErrorDiscipline:
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
        report = run(CommandRequest("ideal", p2, {}))
        assert isinstance(report, Report)
        assert report.status == "ok"
        assert report.payload["generators"] == ["X1^2*X2^2", "X2^5*X3^5"]

    def test_error_report_carries_diagnostic(self):
        report = run(CommandRequest("ideal", "/nonexistent.json", {}))
        assert report.status == "error"
        assert report.diagnostics
