"""Command-line surface for the library.

Every subcommand is a thin adapter over the library modules — no numeric
logic lives here.  Output is byte-identical for identical inputs and seed.
argparse checks every option; each handler reads its namespace.  Every
refusal of input, usage errors included, exits 1 with a one-line JSON
payload on stderr; any other escaping exception is a bug and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from decimal import Decimal

from .closure import build_h
from .errors import PreconditionError
from .fields import GF, FieldSpec
from .forms import format_form
from .hilbert import (
    StratumReport,
    _enumerate_pq,
    _hasse_edges,
    dims,
    enumerate_acceptable,
    nose_tail,
    table_rows,
    tau_of_h,
)
from .ideals import (
    ancestor_ideal,
    generator_degrees,
    hilbert_function,
    ideal_from_json,
    ideal_to_json,
    relation_degrees,
)
from .osequence import parse_oseq
from .related import related_classes
from .spaces import FormSpace, random_space, space_from_json, space_to_json
from .waring import DUAL_VARS, GAD, dual_from_json, gad, mu, tau_delta

DEFAULT_FIELD = GF(101)


# ── I/O helpers ───────────────────────────────────────────────────────────────


def _read_json(path: str) -> dict:
    """The document at `path`; a JSON number with a point or an exponent is read as its exact Decimal."""
    try:
        if path == "-":
            return json.load(sys.stdin, parse_float=Decimal)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=Decimal)
    except FileNotFoundError:
        raise PreconditionError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, no permission
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an over-long int, deep nesting
        raise PreconditionError(f"invalid JSON in {path}: {exc}") from None


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _require(condition: bool, message: str, **context) -> None:
    if not condition:
        raise PreconditionError(message, **context)


# ── analysis shared by `analyze` and `random` ─────────────────────────────────


def _analysis(V: FormSpace) -> dict:
    _require(not V.is_zero, "cannot analyze the zero space")
    d, j = V.dim, V.degree
    _require(d <= j, "analysis needs dim V <= degree", d=d, j=j)
    anc = ancestor_ideal(V)
    H = hilbert_function(anc)
    r = dims(H, d, j)
    N, T = nose_tail(H, j)
    return {
        "d": d,
        "j": j,
        "H": str(H),
        "nose": str(N),
        "tail": str(T),
        "mu": r.mu,
        "gcd": format_form(anc.tail_gcd),
        "partitions": {k: list(getattr(r, k)) for k in ("P", "Q", "A", "B", "C", "D")},
        "generatorDegrees": list(generator_degrees(anc)),
        "relationDegrees": list(relation_degrees(anc)),
        "dimGrass": r.dim_grass,
        "codGrass": r.cod_grass,
        **_report_fields(r),
    }


def _report_fields(r: StratumReport) -> dict:
    """The StratumReport fields `analyze` and `dims` both report, by JSON key."""
    return {
        "tau": r.tau, "c": r.c, "ambient": r.ambient, "dimLA": r.dim_la, "dimGA": r.dim_ga,
        "dimGrassTau": r.dim_grass_tau, "codTauGrass": r.cod_tau_grass,
        "formulas": dict(r.formulas), "discrepancies": list(r.discrepancies),
    }


def _stratum_line(out: dict) -> str:
    return (f"dim LA = {out['dimLA']}   dim GA = {out['dimGA']}   "
            f"dim tau-stratum = {out['dimGrassTau']}   cod in stratum = {out['codTauGrass']}")


def _analysis_text(out: dict) -> str:
    p = out["partitions"]
    lines = [
        f"d = {out['d']}, j = {out['j']}",
        f"H(R/ancestor) = {out['H']}",
        f"nose = {out['nose']}   tail = {out['tail']}",
        f"tau = {out['tau']}   c = {out['c']}   mu = {out['mu']}   gcd = {out['gcd']}",
        f"P = {tuple(p['P'])}   Q = {tuple(p['Q'])}",
        f"A = {tuple(p['A'])}   B = {tuple(p['B'])}   C = {tuple(p['C'])}   D = {tuple(p['D'])}",
        f"generator degrees = {tuple(out['generatorDegrees'])}",
        f"relation degrees  = {tuple(out['relationDegrees'])}",
        f"ambient = {out['ambient']}   dim = {out['dimGrass']}   cod = {out['codGrass']}",
        _stratum_line(out),
    ]
    for s in out["discrepancies"]:
        lines.append(f"discrepancy: {s}")
    return "\n".join(lines)


# ── subcommands ───────────────────────────────────────────────────────────────


def _cmd_analyze(args: argparse.Namespace) -> tuple[int, str]:
    V = space_from_json(_read_json(args.path), args.field)
    out = {"space": space_to_json(V), **_analysis(V)}
    return 0, _dump(out) if args.json else _analysis_text(out)


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    d, j = args.d, args.j
    full = args.show_all or args.tau is not None or args.c is not None
    if full:
        pool = [
            H
            for H in enumerate_acceptable(d, j)
            if (args.tau is None or tau_of_h(H, j) == args.tau)
            and (args.c is None or H.constant == args.c)
        ]
    else:
        pool = table_rows(d, j)
    rows = []
    for H in pool:
        r = dims(H, d, j)
        rows.append(
            {
                "H": str(H),
                "tau": r.tau,
                "c": r.c,
                "dim": r.dim_grass,
                "cod": r.cod_grass,
            }
        )
    out = {"d": d, "j": j, "mode": "all" if full else "table", "count": len(rows), "rows": rows}
    if args.json:
        return 0, _dump(out)
    lines = [f"{'H':<28} tau  c  dim  cod"]
    for row in rows:
        lines.append(
            f"{row['H']:<28} {row['tau']:>3} {row['c']:>2} {row['dim']:>4} {row['cod']:>4}"
        )
    lines.append(f"{len(rows)} sequences ({out['mode']} mode)")
    return 0, "\n".join(lines)


def _cmd_dims(args: argparse.Namespace) -> tuple[int, str]:
    H = parse_oseq(args.h_text)
    r = dims(H, args.d, args.j)
    out = {
        "H": str(H),
        "d": args.d,
        "j": args.j,
        "dim": r.dim_grass,
        "cod": r.cod_grass,
        **_report_fields(r),
    }
    if args.json:
        return 0, _dump(out)
    lines = [
        f"H = {out['H']}  (d = {args.d}, j = {args.j}, tau = {r.tau}, c = {r.c})",
        f"ambient = {r.ambient}   dim = {r.dim_grass}   cod = {r.cod_grass}",
        _stratum_line(out),
        "formula values: "
        + ", ".join(f"{k}={v}" for k, v in sorted(r.formulas.items())),
    ]
    if r.discrepancies:
        lines.append("discrepancy ledger:")
        lines.extend(f"  {s}" for s in r.discrepancies)
    else:
        lines.append("discrepancy ledger: empty (all formulas exact)")
    return 0, "\n".join(lines)


def _cmd_hasse(args: argparse.Namespace) -> tuple[int, str]:
    pairs = _enumerate_pq(args.d, args.j)
    nodes = [str(H) for H, _ in pairs]
    edges = [(str(u), str(v)) for u, v in _hasse_edges(pairs, args.j)]
    if args.dot:
        lines = ["digraph hasse {", "  rankdir=BT;"]
        lines.extend(f'  "{n}";' for n in nodes)
        lines.extend(f'  "{u}" -> "{v}";' for u, v in edges)
        lines.append("}")
        return 0, "\n".join(lines)
    out = {"d": args.d, "j": args.j, "nodes": nodes, "edges": [list(e) for e in edges]}
    if args.json:
        return 0, _dump(out)
    lines = [f"{len(nodes)} sequences, {len(edges)} cover edges"]
    lines.extend(f"{u}  ->  {v}" for u, v in edges)
    return 0, "\n".join(lines)


def _cmd_build(args: argparse.Namespace) -> tuple[int, str]:
    source = ideal_from_json(_read_json(args.path))
    target = parse_oseq(args.target_h)
    trace = build_h(source, target, args.j)
    steps = [
        {"before": str(s.before), "after": str(s.after), "degrees": list(s.degrees)}
        for s in trace.steps
    ]
    final = trace.final_ideal
    out = {
        "targetH": str(target),
        "steps": steps,
        "finalH": str(hilbert_function(final)),
        "generatorDegrees": list(generator_degrees(final)),
        "ideal": ideal_to_json(final),
    }
    if args.json:
        return 0, _dump(out)
    lines = [f"{len(steps)} interpolation steps toward H = {target}"]
    for s in steps:
        lines.append(f"  degrees {tuple(s['degrees'])}: {s['before']}  =>  {s['after']}")
    lines.append(f"final H = {out['finalH']}, generator degrees {tuple(out['generatorDegrees'])}")
    return 0, "\n".join(lines)


def _cmd_waring(args: argparse.Namespace) -> tuple[int, str]:
    W = dual_from_json(_read_json(args.path), args.field)
    res = gad(W)
    out = {"tauDelta": tau_delta(W), "mu": mu(W)}
    if isinstance(res, GAD):
        out["gad"] = {
            "forms": [format_form(L, DUAL_VARS) for L in res.linear_forms],
            "weights": list(res.weights),
            "length": res.length,
        }
    else:
        out["unsplit"] = format_form(res.form, DUAL_VARS)
    if args.json:
        return 0, _dump(out)
    lines = [f"tau_delta = {out['tauDelta']}   mu = {out['mu']}"]
    if "gad" in out:
        pieces = ", ".join(
            f"({f})^[{w}]" for f, w in zip(out["gad"]["forms"], out["gad"]["weights"])
        )
        lines.append(f"decomposition of length {out['gad']['length']}: {pieces}")
    else:
        lines.append(f"no basis row of (Ann W)_mu splits over this field; unsplit factor: {out['unsplit']}")
    return 0, "\n".join(lines)


def _cmd_related(args: argparse.Namespace) -> tuple[int, str]:
    V = space_from_json(_read_json(args.path), args.field)
    classes = related_classes(V)
    rows = [
        {"generatorDegrees": list(generator_degrees(I)), "H": str(hilbert_function(I))}
        for I in classes
    ]
    out = {"count": len(rows), "classes": rows}
    if args.json:
        return 0, _dump(out)
    lines = [f"{len(rows)} related ancestor classes"]
    for k, row in enumerate(rows, start=1):
        lines.append(
            f"  class {k}: generator degrees {tuple(row['generatorDegrees'])}, H = {row['H']}"
        )
    return 0, "\n".join(lines)


def _cmd_random(args: argparse.Namespace) -> tuple[int, str]:
    field = args.field or DEFAULT_FIELD
    V = random_space(args.d, args.j, field, args.seed)
    out = {"space": space_to_json(V), "seed": args.seed, **_analysis(V)}
    if args.json:
        return 0, _dump(out)
    basis = ", ".join(format_form(f) for f in V.basis_forms())
    header = f"sampled V over {field.name}, seed {args.seed}: <{basis}>"
    return 0, header + "\n" + _analysis_text(out)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    from .verify import run_all

    results = run_all(args.max_j)
    if args.json:
        out = [dataclasses.asdict(r) for r in results]
        return (0 if all(r.passed for r in results) else 1), _dump(out)
    lines = []
    for r in results:
        lines.append(r.line())
        lines.extend(f"    {s}" for s in r.failures)
        lines.extend(f"    note: {s}" for s in r.notes)
    ok = all(r.passed for r in results)
    lines.append("all criteria passed" if ok else "SOME CRITERIA FAILED")
    return (0 if ok else 1), "\n".join(lines)


# ── argument parsing ──────────────────────────────────────────────────────────


class _Parser(argparse.ArgumentParser):
    """A usage error is a refusal of input like any other: exit 1 with JSON."""

    def error(self, message):
        raise PreconditionError(message)


def _at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _field(name: str) -> FieldSpec:
    try:
        return FieldSpec.from_name(name)
    except PreconditionError as exc:  # a ValueError: argparse would drop its message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="binforms",
        description="Exact invariants of spaces of degree-j binary forms: "
        "ancestor/level ideals, Hilbert-function strata, closures, Waring "
        "decompositions and related spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_, *, path=None, needs_dj=False, field=False):
        # --field only where it is read; build takes its field from its input
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        if path:
            p.add_argument("path", help=path)
        if field:
            p.add_argument("--field", type=_field, default=None, help="Q or Fp:<prime>")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if needs_dj:
            p.add_argument("--d", type=_at_least(1), required=True)
            p.add_argument("--j", type=_at_least(0), required=True)
        return p

    add("analyze", _cmd_analyze, "full stratum report for a space read from JSON",
        path="space JSON file ('-' for stdin)", field=True)

    p = add("enumerate", _cmd_enumerate, "acceptable Hilbert functions for (d, j)", needs_dj=True)
    p.add_argument("--tau", type=_at_least(0), default=None)
    p.add_argument("--c", type=_at_least(0), default=None)
    p.add_argument("--all", action="store_true", dest="show_all",
                   help="every sequence, not just the per-class table")

    p = add("dims", _cmd_dims, "dimension/codimension report for one sequence", needs_dj=True)
    p.add_argument("--H", dest="h_text", required=True, help='sequence, e.g. "1,2,3,4,3,2,1(0)"')

    p = add("hasse", _cmd_hasse, "specialization poset of acceptable sequences", needs_dj=True)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    p = add("build", _cmd_build, "rebuild an ideal to a more general Hilbert function, "
            "keeping its degree-j component")
    p.add_argument("--from", dest="path", required=True, help="source ideal JSON file")
    p.add_argument("--target-H", dest="target_h", required=True)
    p.add_argument("--j", type=_at_least(0), required=True)

    add("waring", _cmd_waring, "length, apolar ideal order and decomposition of a dual space",
        path="dual-space JSON file ('-' for stdin)", field=True)

    add("related", _cmd_related, "ancestor classes reachable by up/down multiplication chains",
        path="space JSON file ('-' for stdin)", field=True)

    p = add("random", _cmd_random, "sample a space and analyze it", needs_dj=True, field=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("verify", _cmd_verify, "run the acceptance criteria")
    p.add_argument("--max-j", dest="max_j", type=_at_least(0), default=None,
                   help="cap the sweep bounds for a quicker run")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        status, output = args.run(args)
    except PreconditionError as exc:
        print(json.dumps(exc.payload(), sort_keys=True), file=sys.stderr)
        return 1
    except Exception as exc:  # internal assertion failure: always a bug
        payload = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2
    try:
        print(output, flush=True)
    except BrokenPipeError:  # the reader closed stdout (`| head`); see "Note on SIGPIPE" in Python's `signal` docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise again
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
