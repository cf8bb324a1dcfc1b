"""Command-line interface.

Commands operate on a graph document (JSON file or ``-`` for stdin):

    ideal       print the weighted edge ideal's minimal generators
    radical     print the generators after flattening weights to 1
    decompose   irredundant irreducible components (covers or split method)
    covers      minimal weighted vertex covers
    minimize    shrink a given weighted cover to a minimal one
    unmixed     test whether all minimal covers share one cardinality
    classify    family-based unmixedness / Cohen-Macaulayness verdict
    primes      minimal or associated prime supports
    verify      run the cross-validation suite on a graph or random corpus

Exit codes: 0 success, 1 usage or parse error, 2 validation error,
3 cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from ._records import Record
from .classify import FAMILIES, FamilyMismatchError, classify_auto
from .decompose import (
    DEFAULT_COMPONENT_CAP,
    DecompositionLimitError,
    IrreducibleComponent,
    split_decompose,
)
from .graphs import (
    GraphValidationError,
    cover_decomposition,
    enumerate_minimal_covers,
    associated_primes,
    is_unmixed,
    is_weighted_cover,
    minimal_primes,
    minimize_cover,
    validate_graph,
    weighted_edge_ideal,
)
from .monomials import m_radical
from .verify import random_weighted_graph, run_suite

EXIT_CODES = {"ok": 0, "parse": 1, "validation": 2, "oracle": 3}


class CommandRequest(Record):
    """One command to run; ``options`` defaults to a new empty dict."""

    _fields = ("command", "input_path", "options")

    def __init__(
        self, command: str, input_path: str | None, options: dict | None = None
    ):
        self.command = command
        self.input_path = input_path
        self.options = {} if options is None else options


class Report(Record):
    _fields = ("status", "payload", "diagnostics")

    def __init__(self, status: str, payload: dict, diagnostics: list):
        self.status = status
        self.payload = payload
        self.diagnostics = diagnostics

    def exit_code(self) -> int:
        if self.status == "ok":
            return 0
        return EXIT_CODES[self.payload.get("error_kind", "validation")]


class CommandError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _load_graph(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError("parse", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise CommandError("parse", f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        message = f"invalid JSON in {path}: nested too deeply"
        raise CommandError("parse", message) from None
    try:
        return validate_graph(data)
    except GraphValidationError as exc:
        raise CommandError("validation", f"invalid graph: {exc}") from exc


def _generators_payload(command: str, ideal) -> dict:
    return {
        "command": command,
        "generators": [str(g) for g in ideal.generators],
    }


def _component_pairs(graph, component):
    names = graph.context.names
    return [[names[i], e] for i, e in component.powers]


def _cover_pairs(graph, cover):
    return [[graph.vertex_names[v], w] for v, w in cover.powers]


def _cmd_ideal(graph, options) -> dict:
    return _generators_payload("ideal", weighted_edge_ideal(graph))


def _cmd_radical(graph, options) -> dict:
    return _generators_payload("radical", m_radical(weighted_edge_ideal(graph)))


def _cmd_decompose(graph, options) -> dict:
    method = options.get("method", "covers")
    cap = options.get("max_components", DEFAULT_COMPONENT_CAP)
    by_covers = by_split = None
    if method == "covers" or options.get("check"):
        by_covers = cover_decomposition(graph, cap)
    if method == "split" or options.get("check"):
        by_split = split_decompose(weighted_edge_ideal(graph), cap)
    picked = by_covers if method == "covers" else by_split
    payload = {
        "command": "decompose",
        "method": method,
        "components": [_component_pairs(graph, c) for c in picked.components],
        "irredundant": True,
    }
    if options.get("check"):
        if by_covers.components != by_split.components:
            mine = set(by_covers.components)
            theirs = set(by_split.components)
            odd = sorted(mine ^ theirs, key=lambda c: c.powers)[0]
            raise CommandError(
                "oracle",
                f"decomposition methods disagree near component {odd}",
            )
        payload["check"] = {"agree": True}
    return payload


def _cmd_covers(graph, options) -> dict:
    covers = enumerate_minimal_covers(graph)
    return {
        "command": "covers",
        "covers": [_cover_pairs(graph, c) for c in covers],
        "count": len(covers),
    }


def _parse_cover_option(graph, text: str) -> IrreducibleComponent:
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, weight_text = chunk.partition(":")
        if not sep:
            raise CommandError(
                "parse", f"cover entries look like name:weight, got {chunk!r}"
            )
        name = name.strip()
        if name not in graph.vertex_names:
            raise CommandError("validation", f"unknown vertex {name!r}")
        try:
            weight = int(weight_text)
        except ValueError:
            raise CommandError(
                "parse", f"cover weight must be an integer, got {weight_text!r}"
            ) from None
        if weight < 1:
            raise CommandError("validation", "cover weights must be positive")
        entries.append((graph.vertex_names.index(name), weight))
    if not entries:
        raise CommandError("parse", "empty cover given")
    if len(dict(entries)) != len(entries):
        raise CommandError("validation", "cover vertices must be distinct")
    return IrreducibleComponent(graph.context, tuple(entries))


def _cmd_minimize(graph, options) -> dict:
    cover = _parse_cover_option(graph, options.get("cover") or "")
    if not is_weighted_cover(graph, cover):
        raise CommandError(
            "validation", "the given assignment is not a weighted vertex cover"
        )
    result = minimize_cover(graph, cover)
    return {
        "command": "minimize",
        "input": _cover_pairs(graph, cover),
        "cover": _cover_pairs(graph, result),
    }


def _cmd_unmixed(graph, options) -> dict:
    result = is_unmixed(graph)
    payload = {
        "command": "unmixed",
        "unmixed": result.unmixed,
        "cardinality": result.cardinality,
        "witnesses": None,
    }
    if result.witnesses is not None:
        payload["witnesses"] = [_cover_pairs(graph, c) for c in result.witnesses]
    return payload


def _cmd_classify(graph, options) -> dict:
    family = options.get("family", "auto")
    if family != "auto" and family not in FAMILIES:
        raise CommandError("parse", f"unknown family {family!r}")
    try:
        verdict = classify_auto(graph) if family == "auto" else FAMILIES[family](graph)
    except FamilyMismatchError as exc:
        raise CommandError("validation", f"unsupported family: {exc}") from exc
    return {
        "command": "classify",
        "family": verdict.family,
        "unmixed": verdict.unmixed,
        "cohen_macaulay": verdict.cohen_macaulay,
        "certificate": verdict.certificate,
        "rationale": verdict.rationale,
    }


def _cmd_primes(graph, options) -> dict:
    kind = "associated" if options.get("assoc") else "minimal"
    supports = associated_primes(graph) if kind == "associated" else minimal_primes(graph)
    return {
        "command": "primes",
        "kind": kind,
        "primes": [[graph.vertex_names[v] for v in s] for s in supports],
    }


def _cmd_verify(graph, options) -> dict:
    graphs = []
    if graph is not None:
        graphs.append(graph)
    count = options.get("random") or 0
    if count:
        rng = random.Random(options.get("seed", 0))
        for _ in range(count):
            graphs.append(
                random_weighted_graph(
                    rng,
                    max_vertices=options.get("max_vertices", 5),
                    max_weight=options.get("max_weight", 3),
                )
            )
    if not graphs:
        raise CommandError("parse", "verify needs a graph file or --random N")
    results, count = run_suite(graphs, options.get("seed", 0))
    results.sort(key=lambda r: r.name)
    payload = {
        "command": "verify",
        "graphs": count,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "cases": r.cases,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if not payload["passed"]:
        failed = [r for r in results if not r.passed]
        raise _VerifyFailure(payload, [f"{r.name}: {r.detail}" for r in failed])
    return payload


class _VerifyFailure(Exception):
    def __init__(self, payload, messages):
        super().__init__("verification failed")
        self.payload = payload
        self.messages = messages


_HANDLERS = {
    "ideal": _cmd_ideal,
    "radical": _cmd_radical,
    "decompose": _cmd_decompose,
    "covers": _cmd_covers,
    "minimize": _cmd_minimize,
    "unmixed": _cmd_unmixed,
    "classify": _cmd_classify,
    "primes": _cmd_primes,
    "verify": _cmd_verify,
}


def run(request: CommandRequest) -> Report:
    """Execute a request; never raises for expected failure modes."""
    handler = _HANDLERS.get(request.command)
    if handler is None:
        return Report(
            "error",
            {"error_kind": "parse", "command": request.command},
            [f"unknown command {request.command!r}"],
        )
    try:
        if request.input_path:
            graph = _load_graph(request.input_path)
        elif request.command == "verify":
            graph = None
        else:
            raise CommandError("parse", f"{request.command} needs a graph file")
        payload = handler(graph, request.options)
    except _VerifyFailure as exc:
        payload = dict(exc.payload)
        payload["error_kind"] = "oracle"
        return Report("error", payload, exc.messages)
    except (CommandError, DecompositionLimitError, ValueError) as exc:
        kind = exc.kind if isinstance(exc, CommandError) else "validation"
        return Report(
            "error",
            {"error_kind": kind, "command": request.command},
            [str(exc)],
        )
    return Report("ok", payload, [])


def _format_monomial_pairs(pairs) -> str:
    if not pairs:
        return "(0)"
    parts = [name if e == 1 else f"{name}^{e}" for name, e in pairs]
    return "(" + ", ".join(parts) + ")"


def _format_cover_pairs(pairs) -> str:
    if not pairs:
        return "{}"
    return "{" + ", ".join(f"{name}^{w}" for name, w in pairs) + "}"


def _text_lines(payload: dict) -> list[str]:
    command = payload.get("command")
    if command in ("ideal", "radical"):
        gens = payload["generators"]
        if not gens:
            return ["0 (zero ideal)"]
        if gens == ["1"]:
            return ["1 (unit ideal)"]
        return list(gens)
    if command == "decompose":
        lines = []
        for pairs in payload["components"]:
            lines.append("0 (zero ideal)" if not pairs else _format_monomial_pairs(pairs))
        if not lines:
            lines.append("0 (zero ideal)")
        if payload.get("check"):
            lines.append("check: methods agree")
        return lines
    if command == "covers":
        return [_format_cover_pairs(pairs) for pairs in payload["covers"]]
    if command == "minimize":
        return [_format_cover_pairs(payload["cover"])]
    if command == "unmixed":
        lines = [f"unmixed: {str(payload['unmixed']).lower()}"]
        if payload["unmixed"]:
            lines.append(f"cardinality: {payload['cardinality']}")
        else:
            for pairs in payload["witnesses"]:
                lines.append(
                    f"witness: {_format_cover_pairs(pairs)} (cardinality {len(pairs)})"
                )
        return lines
    if command == "classify":
        return [
            f"family: {payload['family']}",
            f"unmixed: {str(payload['unmixed']).lower()}",
            f"cohen_macaulay: {payload['cohen_macaulay']}",
            f"rationale: {payload['rationale']}",
            "certificate: " + json.dumps(payload["certificate"], sort_keys=True),
        ]
    if command == "primes":
        return ["{" + ", ".join(s) + "}" for s in payload["primes"]]
    if command == "verify":
        lines = []
        for check in payload["checks"]:
            state = "pass" if check["passed"] else "FAIL"
            line = f"check {check['name']}: {state} (cases={check['cases']})"
            if check["detail"]:
                line += f" {check['detail']}"
            lines.append(line)
        summary = "pass" if payload["passed"] else "FAIL"
        lines.append(f"result: {summary} ({payload['graphs']} graphs)")
        return lines
    return [json.dumps(payload, sort_keys=True)]


def render(report: Report, fmt: str = "text") -> str:
    """Serialize a report; json output parses back to an equal report."""
    if fmt == "json":
        return json.dumps(
            {
                "status": report.status,
                "payload": report.payload,
                "diagnostics": report.diagnostics,
            },
            indent=2,
            sort_keys=True,
        )
    if report.status != "ok":
        lines = [f"error: {msg}" for msg in report.diagnostics]
        return "\n".join(lines)
    return "\n".join(_text_lines(report.payload))


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"N must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphideals", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_input=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_input:
            p.add_argument("input", help="graph JSON file, or - for stdin")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
        return p

    add("ideal", help="weighted edge ideal generators")
    add("radical", help="generators with weights flattened to 1")
    p = add("decompose", help="irredundant irreducible components")
    p.add_argument("--method", choices=("covers", "split"), default="covers")
    p.add_argument("--check", action="store_true", help="cross-check both methods")
    p.add_argument(
        "--max-components",
        type=_at_least_one,
        metavar="N",
        help="abort either method past N components",
    )
    add("covers", help="minimal weighted vertex covers")
    p = add("minimize", help="minimize a weighted cover")
    p.add_argument("--cover", required=True, help='entries like "v1:2,v2:5"')
    add("unmixed", help="do all minimal covers share one cardinality")
    p = add("classify", help="family verdict: unmixed / Cohen-Macaulay")
    p.add_argument(
        "--family",
        choices=("auto", *FAMILIES),
        default="auto",
    )
    p = add("primes", help="prime supports over the weighted edge ideal")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--minimal", action="store_true", help="minimal primes (default)")
    group.add_argument("--assoc", action="store_true", help="associated primes")
    p = add("verify", needs_input=False, help="run the cross-validation suite")
    p.add_argument("input", nargs="?", help="graph JSON file, or - for stdin")
    p.add_argument("--random", type=_at_least_one, default=0, metavar="N")
    p.add_argument(
        "--max-vertices", type=_at_least_one, default=5, metavar="N", dest="max_vertices"
    )
    p.add_argument(
        "--max-weight", type=_at_least_one, default=3, metavar="N", dest="max_weight"
    )
    p.add_argument("--seed", type=int, default=0)
    return parser


def _request_from_args(args) -> CommandRequest:
    options = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "input", "fmt") and value is not None
    }
    return CommandRequest(args.command, getattr(args, "input", None), options)


def _requested_format(argv) -> str:
    """The --format a command line asks for, read without the full parser.

    A usage error leaves no parsed namespace, yet a JSON caller still
    needs its error report as JSON.
    """
    probe = _Parser(add_help=False)
    probe.add_argument("--format", dest="fmt")
    try:
        known, _ = probe.parse_known_args(argv)
    except _UsageError:
        return "text"
    return "json" if known.fmt == "json" else "text"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        report = Report("error", {"error_kind": "parse"}, [str(exc)])
        print(render(report, _requested_format(argv)), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    request = _request_from_args(args)
    report = run(request)
    rendered = render(report, args.fmt)
    if report.status == "ok":
        print(rendered)
    else:
        print(rendered, file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
