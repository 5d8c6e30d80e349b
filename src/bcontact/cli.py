"""Command-line front end.

Subcommands: enum-trees, enum-torus, check, classify, tight-count, cf,
census, table, export-dot.  Results go to stdout, diagnostics to stderr;
exit status 0 on success, 1 on a domain error (invalid or inadmissible
input, resource caps), 2 on usage or syntax errors.  All machine-readable
output is deterministic and newline-terminated.
"""

from __future__ import annotations

import argparse
import json
import sys

from .admissibility import is_admissible, is_tight_candidate
from .classify import InadmissibleError, classification_table, classify, leaf_census
from .counting import negative_continued_fraction, tight_count_solid_torus
from .enumeration import ResourceLimitError, enum_equicolored_trees, enum_torus_classes
from .formats import (
    ParseError,
    class_to_json_dict,
    export_dot,
    graph_to_json_dict,
    parse_dividing_set,
    render_table_csv,
    render_table_jsonl,
    serialize_class_text,
    serialize_graph_text,
    tight_count_to_json_dict,
)
from .region_graph import InvalidRegionGraphError, canonical_code
from .surfaces import S3_S2, S3_T2, DividingSetClass, ManifoldSpec, Surface

_MANIFOLDS = {"s3-s2": S3_S2, "s3-t2": S3_T2}


def _add_sign_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--distinguish-signs",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="count the two global sign orientations separately (default); "
        "--no-distinguish-signs identifies them",
    )


def _add_format(parser: argparse.ArgumentParser, choices=("text", "json", "csv")) -> None:
    parser.add_argument("--format", choices=list(choices), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcontact",
        description="Enumerate and classify dividing sets of b-contact "
        "structures on (S3, S2) and (S3, T2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum-trees", help="enumerate equicolored trees (sphere classes)")
    p.add_argument("--n", type=int, required=True, help="half the number of regions")
    p.add_argument("--count-only", action="store_true")
    _add_sign_mode(p)
    _add_format(p)

    p = sub.add_parser("enum-torus", help="enumerate admissible torus classes")
    p.add_argument("--max-curves", type=int, default=4)
    p.add_argument("--max-slope", type=int, default=3)
    p.add_argument("--count-only", action="store_true")
    _add_sign_mode(p)
    _add_format(p)

    p = sub.add_parser("check", help="validate a dividing set and report admissibility")
    p.add_argument("--gamma", required=True, help="input file, or - for stdin")
    _add_format(p, ("text", "json"))

    p = sub.add_parser("classify", help="classification record for a dividing set")
    p.add_argument("--gamma", required=True)
    p.add_argument("--manifold", choices=sorted(_MANIFOLDS))
    _add_format(p, ("text", "json"))

    p = sub.add_parser("tight-count", help="tight count N(n, -p, q) on the solid torus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_format(p, ("text", "json"))

    p = sub.add_parser("cf", help="negative continued fraction of -p/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_format(p, ("text", "json"))

    p = sub.add_parser("census", help="leaf census of the singular foliation")
    p.add_argument("--gamma", required=True)
    p.add_argument("--manifold", choices=sorted(_MANIFOLDS))
    _add_format(p, ("text", "json"))

    p = sub.add_parser("table", help="classification table over all enumerated classes")
    p.add_argument("--manifold", choices=sorted(_MANIFOLDS), required=True)
    p.add_argument("--max-curves", type=int, default=5)
    p.add_argument("--max-slope", type=int, default=3)
    _add_sign_mode(p)
    _add_format(p, ("text", "csv", "json"))

    p = sub.add_parser("export-dot", help="emit a Graphviz description of a dividing set")
    p.add_argument("--gamma", required=True)

    return parser


def _read_gamma(path: str) -> DividingSetClass:
    if path == "-":
        return parse_dividing_set(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_dividing_set(handle.read())


def _manifold_for(d: DividingSetClass, name: str | None) -> ManifoldSpec:
    if name is None:
        return S3_S2 if d.surface is Surface.SPHERE else S3_T2
    return _MANIFOLDS[name]


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def _cmd_enum_trees(args, out) -> int:
    modulo_swap = not args.distinguish_signs
    graphs = enum_equicolored_trees(args.n, modulo_swap)
    if args.count_only:
        _emit(out, str(len(graphs)))
        return 0
    if args.format == "json":
        for g in graphs:
            _emit(out, json.dumps(graph_to_json_dict(g)))
    elif args.format == "csv":
        _emit(out, "size,canonical_code,admissible")
        for g in graphs:
            _emit(out, f"{g.edge_count},{canonical_code(g, modulo_swap)},true")
    else:
        _emit(out, "\n".join(serialize_graph_text(g) for g in graphs))
    return 0


def _cmd_enum_torus(args, out) -> int:
    modulo_swap = not args.distinguish_signs
    classes = enum_torus_classes(args.max_curves, args.max_slope, modulo_swap)
    if args.count_only:
        _emit(out, str(len(classes)))
        return 0
    if args.format == "json":
        for d in classes:
            _emit(out, json.dumps(class_to_json_dict(d)))
    elif args.format == "csv":
        _emit(out, "size,canonical_code,admissible")
        for d in classes:
            _emit(out, f"{d.graph.edge_count},{canonical_code(d.graph, modulo_swap)},true")
    else:
        _emit(out, "\n".join(serialize_class_text(d) for d in classes))
    return 0


def _cmd_check(args, out) -> int:
    d = _read_gamma(args.gamma)
    manifold = _manifold_for(d, None)
    admissible = is_admissible(manifold, d)
    tight = is_tight_candidate(manifold, d)
    code = canonical_code(d.graph)
    if args.format == "json":
        _emit(out, json.dumps({
            "canonical_code": code,
            "admissible": admissible.ok,
            "admissible_reason": admissible.reason,
            "tight_candidate": tight.ok,
            "tight_candidate_reason": tight.reason,
        }))
    else:
        _emit(out, f"canonical-code {code}")
        _emit(out, f"admissible {'yes' if admissible else 'no'} ({admissible.reason})")
        _emit(out, f"tight-candidate {'yes' if tight else 'no'} ({tight.reason})")
    if not admissible:
        print(f"inadmissible: {admissible.reason}", file=sys.stderr)
        return 1
    return 0


def _record_json(record) -> dict:
    out = {
        "manifold": f"s3-{'s2' if record.manifold.critical is Surface.SPHERE else 't2'}",
        "dividing_set": class_to_json_dict(record.dividing_set),
        "tight": [record.tight.finite_factor, record.tight.free_rank],
        "mixed": [record.mixed.finite_factor, record.mixed.free_rank],
        "fully_overtwisted": [
            record.fully_overtwisted.finite_factor,
            record.fully_overtwisted.free_rank,
        ],
    }
    detail = record.tight_count_detail
    out["tight_count_detail"] = None if detail is None else tight_count_to_json_dict(detail)
    return out


def _cmd_classify(args, out) -> int:
    d = _read_gamma(args.gamma)
    record = classify(_manifold_for(d, args.manifold), d)
    if args.format == "json":
        _emit(out, json.dumps(_record_json(record)))
        return 0
    _emit(out, f"tight {record.tight.finite_factor} {record.tight.free_rank}")
    _emit(out, f"mixed {record.mixed.finite_factor} {record.mixed.free_rank}")
    _emit(
        out,
        f"fully-overtwisted {record.fully_overtwisted.finite_factor} "
        f"{record.fully_overtwisted.free_rank}",
    )
    detail = record.tight_count_detail
    if detail is not None:
        _emit(
            out,
            f"tight-count-detail n={detail.n} p={detail.p} q={detail.q} "
            f"r={detail.r} s={detail.s} count={detail.count}",
        )
    return 0


def _cmd_tight_count(args, out) -> int:
    result = tight_count_solid_torus(args.n, args.p, args.q)
    if args.format == "json":
        _emit(out, json.dumps(tight_count_to_json_dict(result)))
    else:
        _emit(out, str(result.count))
    return 0


def _cmd_cf(args, out) -> int:
    cf = negative_continued_fraction(args.p, args.q)
    if args.format == "json":
        _emit(out, json.dumps({
            "coefficients": list(cf.coefficients),
            "degenerate": cf.degenerate,
        }))
    else:
        _emit(out, " ".join(str(a) for a in cf.coefficients))
    return 0


def _cmd_census(args, out) -> int:
    d = _read_gamma(args.gamma)
    census = leaf_census(_manifold_for(d, args.manifold), d)
    if args.format == "json":
        _emit(out, json.dumps({
            "leaves_dim3": census.leaves_dim3,
            "leaves_dim2": census.leaves_dim2,
            "leaves_dim1": census.leaves_dim1,
        }))
    else:
        _emit(out, f"{census.leaves_dim3} {census.leaves_dim2} {census.leaves_dim1}")
    return 0


def _cmd_table(args, out) -> int:
    modulo_swap = not args.distinguish_signs
    records = classification_table(
        _MANIFOLDS[args.manifold], args.max_curves, args.max_slope, modulo_swap
    )
    if args.format == "json":
        _emit(out, render_table_jsonl(records, modulo_swap))
    else:
        _emit(out, render_table_csv(records, modulo_swap))
    return 0


def _cmd_export_dot(args, out) -> int:
    _emit(out, export_dot(_read_gamma(args.gamma)))
    return 0


_COMMANDS = {
    "enum-trees": _cmd_enum_trees,
    "enum-torus": _cmd_enum_torus,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "tight-count": _cmd_tight_count,
    "cf": _cmd_cf,
    "census": _cmd_census,
    "table": _cmd_table,
    "export-dot": _cmd_export_dot,
}


def run_cli(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidRegionGraphError, InadmissibleError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
