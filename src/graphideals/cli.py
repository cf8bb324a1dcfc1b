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

The parser from :func:`build_parser` is the one place that defaults and
checks an option.  In-process, ``main(argv)`` returns the exit code and
``run(build_parser().parse_args(argv))`` returns the :class:`Report`;
every failure inside a command is a :class:`CommandError`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
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
    """A failed command: its exit-code kind, one diagnostic per fault and,
    when the command got far enough to report on itself, its payload."""

    def __init__(self, kind: str, *messages: str, payload: dict | None = None):
        super().__init__(*messages)
        self.kind = kind
        self.messages = list(messages)
        self.payload = payload


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


def _generators_payload(ideal) -> dict:
    return {"generators": [str(g) for g in ideal.generators]}


def _component_pairs(graph, component):
    names = graph.context.names
    return [[names[i], e] for i, e in component.powers]


def _cover_pairs(graph, cover):
    return [[graph.vertex_names[v], w] for v, w in cover.powers]


def _cmd_ideal(graph, args) -> dict:
    return _generators_payload(weighted_edge_ideal(graph))


def _cmd_radical(graph, args) -> dict:
    return _generators_payload(m_radical(weighted_edge_ideal(graph)))


def _cmd_decompose(graph, args) -> dict:
    by_covers = by_split = None
    if args.method == "covers" or args.check:
        by_covers = cover_decomposition(graph, args.max_components)
    if args.method == "split" or args.check:
        by_split = split_decompose(weighted_edge_ideal(graph), args.max_components)
    picked = by_covers if args.method == "covers" else by_split
    payload = {
        "method": args.method,
        "components": [_component_pairs(graph, c) for c in picked.components],
        "irredundant": True,
    }
    if args.check:
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


def _cmd_covers(graph, args) -> dict:
    covers = enumerate_minimal_covers(graph)
    return {
        "covers": [_cover_pairs(graph, c) for c in covers],
        "count": len(covers),
    }


def _parse_cover_option(graph, text: str) -> IrreducibleComponent:
    names = graph.vertex_names
    entries = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        # the weight follows the last colon, so a name may hold colons
        name, sep, weight_text = chunk.rstrip().rpartition(":")
        if not sep:
            raise CommandError(
                "parse", f"cover entries look like name:weight, got {chunk.strip()!r}"
            )
        # the exact name first, so a name may start or end with a blank;
        # when the stripped text names another vertex, neither is meant
        stripped = name.strip()
        if name not in names:
            name = stripped
        elif stripped != name and stripped in names:
            raise CommandError(
                "validation",
                f"ambiguous vertex name {name!r}: {stripped!r} is a vertex too",
            )
        if name not in names:
            raise CommandError("validation", f"unknown vertex {name!r}")
        try:
            # ASCII digits only: int() alone reads "1_0", "+2" and "٢" too
            if not re.fullmatch("-?[0-9]+", weight_text.strip()):
                raise ValueError
            weight = int(weight_text)
        except ValueError:  # int() also rejects strings past the digit limit
            raise CommandError(
                "parse", f"cover weight must be an integer, got {weight_text!r}"
            ) from None
        if weight < 1:
            raise CommandError("validation", "cover weights must be positive")
        entries.append((names.index(name), weight))
    if not entries:
        raise CommandError("parse", "empty cover given")
    if len(dict(entries)) != len(entries):
        raise CommandError("validation", "cover vertices must be distinct")
    # known vertices, int weights >= 1, distinct: only the order is left
    return IrreducibleComponent._of_powers(graph.context, tuple(sorted(entries)))


def _cmd_minimize(graph, args) -> dict:
    cover = _parse_cover_option(graph, args.cover)
    if not is_weighted_cover(graph, cover):
        raise CommandError(
            "validation", "the given assignment is not a weighted vertex cover"
        )
    result = minimize_cover(graph, cover)
    return {
        "input": _cover_pairs(graph, cover),
        "cover": _cover_pairs(graph, result),
    }


def _cmd_unmixed(graph, args) -> dict:
    result = is_unmixed(graph)
    payload = {
        "unmixed": result.unmixed,
        "cardinality": result.cardinality,
        "witnesses": None,
    }
    if result.witnesses is not None:
        payload["witnesses"] = [_cover_pairs(graph, c) for c in result.witnesses]
    return payload


def _cmd_classify(graph, args) -> dict:
    classify = classify_auto if args.family == "auto" else FAMILIES[args.family]
    try:
        verdict = classify(graph)
    except FamilyMismatchError as exc:
        raise CommandError("validation", f"unsupported family: {exc}") from exc
    return {
        "family": verdict.family,
        "unmixed": verdict.unmixed,
        "cohen_macaulay": verdict.cohen_macaulay,
        "certificate": verdict.certificate,
        "rationale": verdict.rationale,
    }


def _cmd_primes(graph, args) -> dict:
    kind = "associated" if args.assoc else "minimal"
    supports = associated_primes(graph) if args.assoc else minimal_primes(graph)
    return {
        "kind": kind,
        "primes": [[graph.vertex_names[v] for v in s] for s in supports],
    }


def _cmd_verify(graph, args) -> dict:
    graphs = [] if graph is None else [graph]
    rng = random.Random(args.seed)
    for _ in range(args.random):
        graphs.append(random_weighted_graph(rng, args.max_vertices, args.max_weight))
    if not graphs:
        raise CommandError("parse", "verify needs a graph file or --random N")
    results, count = run_suite(graphs, args.seed)
    results.sort(key=lambda r: r.name)
    payload = {
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
        failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
        raise CommandError("oracle", *failed, payload=payload)
    return payload


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


def run(args: argparse.Namespace) -> Report:
    """Execute a command line parsed by :func:`build_parser`.

    Never raises for expected failure modes: those come back as an error
    report.
    """
    try:
        if args.input:
            graph = _load_graph(args.input)
        elif args.command == "verify":
            graph = None
        else:
            raise CommandError("parse", f"{args.command} needs a graph file")
        payload = _HANDLERS[args.command](graph, args)
        status, diagnostics = "ok", []
    except CommandError as exc:
        payload = dict(exc.payload or {}, error_kind=exc.kind)
        status, diagnostics = "error", exc.messages
    except (DecompositionLimitError, ValueError) as exc:
        payload = {"error_kind": "validation"}
        status, diagnostics = "error", [str(exc)]
    payload["command"] = args.command
    return Report(status, payload, diagnostics)


def _format_monomial_pairs(pairs) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in pairs]
    return "(" + ", ".join(parts) + ")"


def _format_cover_pairs(pairs) -> str:
    if not pairs:
        return "{}"
    return "{" + ", ".join(f"{name}^{w}" for name, w in pairs) + "}"


def _text_lines(payload: dict) -> list[str]:
    command = payload.get("command")
    if command in ("ideal", "radical"):
        return payload["generators"] or ["0 (zero ideal)"]
    if command == "decompose":
        lines = []
        for pairs in payload["components"]:
            lines.append("0 (zero ideal)" if not pairs else _format_monomial_pairs(pairs))
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
    # the one command left: verify
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
        default=DEFAULT_COMPONENT_CAP,
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
    report = run(args)
    rendered = render(report, args.fmt)
    if report.status == "ok":
        try:
            print(rendered, flush=True)
        except BrokenPipeError:
            # the reader left early; stdout goes to devnull, so that the
            # flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        print(rendered, file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
