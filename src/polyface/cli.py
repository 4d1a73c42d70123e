"""Command-line front end.

Subcommands: generate, face, verify, geometry, report.  JSON output is the
machine interface (canonical key order, byte-stable for identical inputs);
text output renders the same structure for humans.  Exit codes: 0 success /
all assertions pass / predicate true, 1 failure or bad input, 2 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from math import comb
from pathlib import Path

from .constructions import (
    Report,
    dcp_verify,
    lemma1_verify,
    theorem1_system,
    theorem1_verify,
)
from .core import Vertex01, VertexSet
from .errors import CapacityError, ParseError, PolyfaceError
from .faces import FaceSystem, extract_face
from .generators import (
    DEFAULT_MAX_DCP_COLS,
    DEFAULT_MAX_PERMS,
    FourOnesMatrix,
    Graph,
    bqp_vertices,
    dcp_vertices,
    lop_vertices,
    stable_vertices,
)
from .geometry import adjacent, clique_check, is_face_subset

def _read_vertex_set(path: str) -> VertexSet:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return VertexSet.from_json(text)
    return VertexSet.from_text(text)


def _write_vertex_set(vs: VertexSet, path: str, fmt: str) -> None:
    data = vs.to_json() if fmt == "json" else vs.to_text()
    Path(path).write_text(data)


def _emit_report(report: Report, args) -> None:
    out = report.to_json() if args.format == "json" else report.render_text()
    sys.stdout.write(out)
    if getattr(args, "out", None):
        Path(args.out).write_text(report.to_json())


def _require(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise ParseError(f"this command requires {flag}")
    return value


def cmd_generate(args) -> int:
    family = args.family
    if family == "bqp":
        vs = bqp_vertices(_require(args, "n", "--n"))
    elif family == "lop":
        vs = lop_vertices(_require(args, "m", "--m"), max_perms=args.max_perms)
    elif family == "stable":
        graph = Graph.parse(Path(_require(args, "graph", "--graph")).read_text())
        vs = stable_vertices(graph)
    else:
        matrix = FourOnesMatrix.parse(Path(_require(args, "matrix", "--matrix")).read_text())
        vs = dcp_vertices(matrix, max_cols=args.max_cols)
    if vs.layout.dim == 0:
        print("warning: layout has dimension 0", file=sys.stderr)
    print(f"dim={vs.layout.dim} count={len(vs)}")
    if args.out:
        _write_vertex_set(vs, args.out, args.format)
    return 0


def cmd_face(args) -> int:
    vs = _read_vertex_set(args.set)
    system = FaceSystem.parse(Path(args.system).read_text())
    extraction = extract_face(vs, system)
    report = Report("face", {"set": args.set, "system": args.system})
    for idx, check in enumerate(extraction.checks):
        # a valid relaxation that no vertex meets with equality is not supporting
        report.check(
            f"supporting[{idx}] {check.form.describe(system.layout)}",
            check.attained,
            witness=f"valid as {check.direction} but attained by no vertex",
        )
    report.details = {
        "input_size": len(vs),
        "face_size": len(extraction.face),
        "directions": [check.direction for check in extraction.checks],
        "attained": [check.attained for check in extraction.checks],
        "warnings": list(extraction.warnings),
    }
    _emit_report(report, args)
    if args.face_out:
        _write_vertex_set(extraction.face, args.face_out, args.format)
    return 0 if report.all_passed else 1


def cmd_verify(args) -> int:
    if args.construction == "theorem1":
        report = theorem1_verify(_require(args, "n", "--n"), max_perms=args.max_perms)
    elif args.construction == "lemma1":
        graph = Graph.parse(Path(_require(args, "graph", "--graph")).read_text())
        report = lemma1_verify(graph, max_perms=args.max_perms)
    else:
        report = dcp_verify(
            _require(args, "m", "--m"),
            max_cols=args.max_cols,
            max_perms=args.max_perms,
        )
    _emit_report(report, args)
    return 0 if report.all_passed else 1


def _parse_selector(token: str, vs: VertexSet) -> Vertex01:
    """The vertex named by a 0/1 string of length dim or by an index into
    ``vs``.  A token that reads both ways must name one vertex both ways."""
    dim = vs.layout.dim
    if len(token) == dim and set(token) <= {"0", "1"}:
        v = Vertex01.from_string(token)
        if token and int(token) < len(vs):
            indexed = Vertex01(dim, vs.words[int(token)])
            if indexed != v:
                reading = "is a vertex" if v in vs else "is not in the set"
                raise ParseError(
                    f"ambiguous vertex selector {token!r}: bit string {token} "
                    f"{reading}, index {int(token)} is vertex {indexed.to_string()}"
                )
        if v not in vs:
            raise ParseError(f"vertex {token} not found in the set")
        return v
    try:
        index = int(token)
    except ValueError:
        raise ParseError(f"bad vertex selector: {token!r}") from None
    if not 0 <= index < len(vs):
        raise ParseError(f"vertex index {index} out of range [0, {len(vs)})")
    return Vertex01(dim, vs.words[index])


def _resolve_subset(args, vs: VertexSet) -> list[Vertex01]:
    tokens = args.subset or []
    if tokens == ["theorem1-face"]:
        layout = vs.layout
        if layout.kind != "lop" or layout.param % 2 != 0:
            raise ParseError(
                "selector 'theorem1-face' needs a lop set on an even element count"
            )
        n = layout.param // 2
        return list(extract_face(vs, theorem1_system(n)).face)
    if "theorem1-face" in tokens:
        raise ParseError("'theorem1-face' cannot be mixed with other selectors")
    if not tokens:
        raise ParseError("this check requires --subset")
    return [_parse_selector(t, vs) for t in tokens]


def cmd_geometry(args) -> int:
    vs = _read_vertex_set(args.set)
    check = args.check
    report = Report(f"geometry.{check}", {"set": args.set})
    if check == "adjacent":
        u = _parse_selector(_require(args, "u", "--u"), vs)
        v = _parse_selector(_require(args, "v", "--v"), vs)
        result = adjacent(u, v, vs)
        report.params.update({"u": u.to_string(), "v": v.to_string()})
        report.check("adjacent", result, witness="midpoint lies in the remaining hull")
    elif check == "face":
        subset = _resolve_subset(args, vs)
        result, certificate = is_face_subset(subset, vs)
        report.params["subset"] = [v.to_string() for v in subset]
        report.check("is_face", result, witness="no separating hyperplane exists")
        report.details["certificate"] = certificate.render() if certificate else None
    elif check == "clique":
        subset = _resolve_subset(args, vs)
        result = clique_check(subset, vs)
        report.params["subset"] = [v.to_string() for v in subset]
        report.check("pairwise_adjacent", result, witness="some pair is not adjacent")
    else:
        k = _require(args, "k", "--k")
        if not 1 <= k <= len(vs):
            raise ParseError(f"--k must be in [1, {len(vs)}]")
        # the first failing k-subset, numbered from 1, or the count of all of them
        numbered = enumerate(combinations(vs.vertices, k), 1)
        checked, failing = next(
            ((i, s) for i, s in numbered if not is_face_subset(list(s), vs)[0]),
            (comb(len(vs), k), None))
        report.params["k"] = k
        report.check(
            f"all_{k}_subsets_are_faces",
            failing is None,
            witness=json.dumps([v.to_string() for v in failing]) if failing else None,
        )
        report.details["subsets_checked"] = checked
    _emit_report(report, args)
    return 0 if report.all_passed else 1


def cmd_report(args) -> int:
    try:
        obj = json.loads(Path(getattr(args, "in")).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad report JSON: {exc}") from exc
    report = Report.from_json_obj(obj)
    _emit_report(report, args)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyface",
        description=(
            "Enumerate vertex sets of 0/1 polytopes, extract faces via "
            "supporting hyperplanes, and certify the embeddings between them "
            "with exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    perms = argparse.ArgumentParser(add_help=False)
    perms.add_argument(
        "--max-perms",
        type=int,
        default=DEFAULT_MAX_PERMS,
        help=(
            "order budget: every order for generate lop and verify dcp, the "
            "face's orders for verify theorem1, the count's 5^n states for verify lemma1 "
            f"(default {DEFAULT_MAX_PERMS})"
        ),
    )
    cols = argparse.ArgumentParser(add_help=False)
    cols.add_argument(
        "--max-cols",
        type=int,
        default=DEFAULT_MAX_DCP_COLS,
        help=(
            "column cap of the double-covering search: the matrix's columns for "
            f"generate dcp, the embedding's for verify dcp (default {DEFAULT_MAX_DCP_COLS})"
        ),
    )

    p = sub.add_parser("generate", parents=[fmt, perms, cols], help="enumerate a vertex set")
    p.add_argument("family", choices=("bqp", "lop", "stable", "dcp"))
    p.add_argument("--n", type=int, help="variable count for bqp")
    p.add_argument("--m", type=int, help="element count for lop")
    p.add_argument("--graph", help="graph file for stable")
    p.add_argument("--matrix", help="four-ones matrix file for dcp")
    p.add_argument("--out", help="write the vertex set to this file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "face", parents=[fmt], help="extract the face cut out by an equality system"
    )
    p.add_argument("--set", required=True, help="vertex-set file")
    p.add_argument("--system", required=True, help="face-system file")
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--face-out", help="write the face vertex set to this file, in --format")
    p.set_defaults(func=cmd_face)

    p = sub.add_parser(
        "verify", parents=[fmt, perms, cols], help="run one of the embedding certifiers"
    )
    p.add_argument("construction", choices=("theorem1", "lemma1", "dcp"))
    p.add_argument("--n", type=int, help="variable count for theorem1")
    p.add_argument("--graph", help="graph file for lemma1")
    p.add_argument("--m", type=int, help="element count for dcp")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("geometry", parents=[fmt], help="LP-backed predicates on a vertex set")
    p.add_argument("check", choices=("adjacent", "face", "clique", "neighborly"))
    p.add_argument("--set", required=True, help="vertex-set file")
    p.add_argument("--u", help="vertex selector (bit string or 0-based index)")
    p.add_argument("--v", help="vertex selector (bit string or 0-based index)")
    p.add_argument(
        "--subset",
        nargs="+",
        help="vertex selectors, or the named selector 'theorem1-face'",
    )
    p.add_argument("--k", type=int, help="subset size for the neighborly sweep")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("report", parents=[fmt], help="render a stored JSON report")
    p.add_argument("--in", required=True, help="report JSON file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PolyfaceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
