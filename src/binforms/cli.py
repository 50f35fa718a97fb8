"""Command-line surface for the library.

Every subcommand is a thin adapter over the library modules — no numeric
logic lives here.  Output is byte-identical for identical inputs and seed.
Precondition violations exit with status 1 and a machine-readable JSON
payload on stderr; any other escaping exception is a bug and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError
from .fields import GF, FieldSpec
from .forms import format_form
from .hilbert import (
    count_by_tau,
    dims,
    enumerate_acceptable,
    hasse_edges,
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
from .spaces import FormSpace, gcd_of_space, random_space, space_from_json, space_to_json
from .waring import DUAL_VARS, GAD, dual_from_json, gad, mu, tau_delta

DEFAULT_FIELD = GF(101)


@dataclass(frozen=True)
class CommandConfig:
    command: str
    fmt: str = "text"  # text | json | dot
    field: FieldSpec | None = None
    input_path: str | None = None
    h_text: str | None = None
    target_h: str | None = None
    d: int | None = None
    j: int | None = None
    tau: int | None = None
    c: int | None = None
    seed: int | None = None
    max_j: int | None = None
    show_all: bool = False


# ── I/O helpers ───────────────────────────────────────────────────────────────


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise PreconditionError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
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
        "tau": r.tau,
        "c": r.c,
        "mu": r.mu,
        "gcd": format_form(gcd_of_space(V)),
        "partitions": {k: list(getattr(r, k)) for k in ("P", "Q", "A", "B", "C", "D")},
        "generatorDegrees": list(generator_degrees(anc)),
        "relationDegrees": list(relation_degrees(anc)),
        "ambient": r.ambient,
        "dimGrass": r.dim_grass,
        "dimLA": r.dim_la,
        "dimGA": r.dim_ga,
        "dimGrassTau": r.dim_grass_tau,
        "codGrass": r.cod_grass,
        "codTauGrass": r.cod_tau_grass,
        "formulas": dict(r.formulas),
        "discrepancies": list(r.discrepancies),
    }


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
        f"dim LA = {out['dimLA']}   dim GA = {out['dimGA']}   "
        f"dim tau-stratum = {out['dimGrassTau']}   cod in stratum = {out['codTauGrass']}",
    ]
    for s in out["discrepancies"]:
        lines.append(f"discrepancy: {s}")
    return "\n".join(lines)


# ── subcommands ───────────────────────────────────────────────────────────────


def _cmd_analyze(cfg: CommandConfig) -> tuple[int, str]:
    V = space_from_json(_read_json(cfg.input_path), cfg.field)
    out = {"space": space_to_json(V), **_analysis(V)}
    return 0, _dump(out) if cfg.fmt == "json" else _analysis_text(out)


def _cmd_enumerate(cfg: CommandConfig) -> tuple[int, str]:
    d, j = cfg.d, cfg.j
    _require(d is not None and j is not None, "enumerate needs --d and --j")
    full = cfg.show_all or cfg.tau is not None or cfg.c is not None
    if full:
        pool = [
            H
            for H in enumerate_acceptable(d, j)
            if (cfg.tau is None or tau_of_h(H, j) == cfg.tau)
            and (cfg.c is None or H.constant == cfg.c)
        ]
        groups = Counter((tau_of_h(H, j), H.constant) for H in pool)
        for (t, c), n in sorted(groups.items()):
            if cfg.tau is None and cfg.c is None and n != count_by_tau(d, j, t, c):
                raise RuntimeError(f"count formula disagrees at (tau,c)=({t},{c})")
    else:
        pool = table_rows(d, j)
        for H in pool:
            t, c = tau_of_h(H, j), H.constant
            if count_by_tau(d, j, t, c) < 1:
                raise RuntimeError(f"empty class listed in table at (tau,c)=({t},{c})")
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
    if cfg.fmt == "json":
        return 0, _dump(out)
    lines = [f"{'H':<28} tau  c  dim  cod"]
    for row in rows:
        lines.append(
            f"{row['H']:<28} {row['tau']:>3} {row['c']:>2} {row['dim']:>4} {row['cod']:>4}"
        )
    lines.append(f"{len(rows)} sequences ({out['mode']} mode)")
    return 0, "\n".join(lines)


def _cmd_dims(cfg: CommandConfig) -> tuple[int, str]:
    _require(cfg.h_text is not None and cfg.d is not None and cfg.j is not None,
             "dims needs --H, --d and --j")
    H = parse_oseq(cfg.h_text)
    r = dims(H, cfg.d, cfg.j)
    out = {
        "H": str(H),
        "d": cfg.d,
        "j": cfg.j,
        "tau": r.tau,
        "c": r.c,
        "ambient": r.ambient,
        "dim": r.dim_grass,
        "cod": r.cod_grass,
        "dimLA": r.dim_la,
        "dimGA": r.dim_ga,
        "dimGrassTau": r.dim_grass_tau,
        "codTauGrass": r.cod_tau_grass,
        "formulas": dict(r.formulas),
        "discrepancies": list(r.discrepancies),
    }
    if cfg.fmt == "json":
        return 0, _dump(out)
    lines = [
        f"H = {out['H']}  (d = {cfg.d}, j = {cfg.j}, tau = {r.tau}, c = {r.c})",
        f"ambient = {r.ambient}   dim = {r.dim_grass}   cod = {r.cod_grass}",
        f"dim LA = {r.dim_la}   dim GA = {r.dim_ga}   "
        f"dim tau-stratum = {r.dim_grass_tau}   cod in stratum = {r.cod_tau_grass}",
        "formula values: "
        + ", ".join(f"{k}={v}" for k, v in sorted(r.formulas.items())),
    ]
    if r.discrepancies:
        lines.append("discrepancy ledger:")
        lines.extend(f"  {s}" for s in r.discrepancies)
    else:
        lines.append("discrepancy ledger: empty (all formulas exact)")
    return 0, "\n".join(lines)


def _cmd_hasse(cfg: CommandConfig) -> tuple[int, str]:
    _require(cfg.d is not None and cfg.j is not None, "hasse needs --d and --j")
    nodes = [str(H) for H in enumerate_acceptable(cfg.d, cfg.j)]
    edges = [(str(u), str(v)) for u, v in hasse_edges(cfg.d, cfg.j)]
    if cfg.fmt == "dot":
        lines = ["digraph hasse {", "  rankdir=BT;"]
        lines.extend(f'  "{n}";' for n in nodes)
        lines.extend(f'  "{u}" -> "{v}";' for u, v in edges)
        lines.append("}")
        return 0, "\n".join(lines)
    out = {"d": cfg.d, "j": cfg.j, "nodes": nodes, "edges": [list(e) for e in edges]}
    if cfg.fmt == "json":
        return 0, _dump(out)
    lines = [f"{len(nodes)} sequences, {len(edges)} cover edges"]
    lines.extend(f"{u}  ->  {v}" for u, v in edges)
    return 0, "\n".join(lines)


def _cmd_build(cfg: CommandConfig) -> tuple[int, str]:
    from .closure import build_h

    _require(cfg.input_path is not None and cfg.target_h is not None and cfg.j is not None,
             "build needs --from, --target-H and --j")
    source = ideal_from_json(_read_json(cfg.input_path))
    target = parse_oseq(cfg.target_h)
    trace = build_h(source, target, cfg.j)
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
    if cfg.fmt == "json":
        return 0, _dump(out)
    lines = [f"{len(steps)} interpolation steps toward H = {target}"]
    for s in steps:
        lines.append(f"  degrees {tuple(s['degrees'])}: {s['before']}  =>  {s['after']}")
    lines.append(f"final H = {out['finalH']}, generator degrees {tuple(out['generatorDegrees'])}")
    return 0, "\n".join(lines)


def _cmd_waring(cfg: CommandConfig) -> tuple[int, str]:
    W = dual_from_json(_read_json(cfg.input_path), cfg.field)
    res = gad(W)
    # a GAD's length is mu, certified inside gad; only Unsplit needs mu(W)
    out = {"tauDelta": tau_delta(W), "mu": res.length if isinstance(res, GAD) else mu(W)}
    if isinstance(res, GAD):
        out["gad"] = {
            "forms": [format_form(L, DUAL_VARS) for L in res.linear_forms],
            "weights": list(res.weights),
            "length": res.length,
        }
    else:
        out["unsplit"] = format_form(res.form, DUAL_VARS)
    if cfg.fmt == "json":
        return 0, _dump(out)
    lines = [f"tau_delta = {out['tauDelta']}   mu = {out['mu']}"]
    if "gad" in out:
        pieces = ", ".join(
            f"({f})^[{w}]" for f, w in zip(out["gad"]["forms"], out["gad"]["weights"])
        )
        lines.append(f"decomposition of length {out['gad']['length']}: {pieces}")
    else:
        lines.append(f"no split decomposition over this field; unsplit factor: {out['unsplit']}")
    return 0, "\n".join(lines)


def _cmd_related(cfg: CommandConfig) -> tuple[int, str]:
    V = space_from_json(_read_json(cfg.input_path), cfg.field)
    classes = related_classes(V)
    rows = [
        {"generatorDegrees": list(generator_degrees(I)), "H": str(hilbert_function(I))}
        for I in classes
    ]
    out = {"count": len(rows), "classes": rows}
    if cfg.fmt == "json":
        return 0, _dump(out)
    lines = [f"{len(rows)} related ancestor classes"]
    for k, row in enumerate(rows, start=1):
        lines.append(
            f"  class {k}: generator degrees {tuple(row['generatorDegrees'])}, H = {row['H']}"
        )
    return 0, "\n".join(lines)


def _cmd_random(cfg: CommandConfig) -> tuple[int, str]:
    _require(cfg.d is not None and cfg.j is not None and cfg.seed is not None,
             "random needs --d, --j and --seed")
    field = cfg.field or DEFAULT_FIELD
    V = random_space(cfg.d, cfg.j, field, cfg.seed)
    out = {"space": space_to_json(V), "seed": cfg.seed, **_analysis(V)}
    if cfg.fmt == "json":
        return 0, _dump(out)
    basis = ", ".join(format_form(f) for f in V.basis_forms())
    header = f"sampled V over {field.name}, seed {cfg.seed}: <{basis}>"
    return 0, header + "\n" + _analysis_text(out)


def _cmd_verify(cfg: CommandConfig) -> tuple[int, str]:
    from .verify import run_all

    results = run_all(cfg.max_j)
    if cfg.fmt == "json":
        out = [
            {
                "number": r.number,
                "title": r.title,
                "passed": r.passed,
                "elapsed": r.elapsed,
                "bound": r.bound,
                "failures": list(r.failures),
                "notes": list(r.notes),
            }
            for r in results
        ]
        return (0 if all(r.passed for r in results) else 1), _dump(out)
    lines = []
    for r in results:
        lines.append(r.line())
        lines.extend(f"    {s}" for s in r.failures)
        lines.extend(f"    note: {s}" for s in r.notes)
    ok = all(r.passed for r in results)
    lines.append("all criteria passed" if ok else "SOME CRITERIA FAILED")
    return (0 if ok else 1), "\n".join(lines)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "enumerate": _cmd_enumerate,
    "dims": _cmd_dims,
    "hasse": _cmd_hasse,
    "build": _cmd_build,
    "waring": _cmd_waring,
    "related": _cmd_related,
    "random": _cmd_random,
    "verify": _cmd_verify,
}


def dispatch(cfg: CommandConfig) -> tuple[int, str]:
    """Validate ranges, run the subcommand, return (exit status, output)."""
    for name in ("d", "j", "tau", "c", "max_j"):
        value = getattr(cfg, name)
        _require(value is None or value >= 0, f"--{name.replace('_', '-')} must be >= 0")
    if cfg.d is not None:
        _require(cfg.d >= 1, "--d must be >= 1")
    if cfg.fmt == "dot":
        _require(cfg.command == "hasse", "--dot only applies to `hasse`")
    return _HANDLERS[cfg.command](cfg)


# ── argument parsing ──────────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binforms",
        description="Exact invariants of spaces of degree-j binary forms: "
        "ancestor/level ideals, Hilbert-function strata, closures, Waring "
        "decompositions and related spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *, path=None, needs_dj=False):
        p = sub.add_parser(name, help=help_)
        if path:
            p.add_argument("path", help=path)
        p.add_argument("--field", default=None, help="Q or Fp:<prime>")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if needs_dj:
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--j", type=int, default=None)
        return p

    add("analyze", "full stratum report for a space read from JSON",
        path="space JSON file ('-' for stdin)")

    p = add("enumerate", "acceptable Hilbert functions for (d, j)", needs_dj=True)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--all", action="store_true", dest="show_all",
                   help="every sequence, not just the per-class table")

    p = add("dims", "dimension/codimension report for one sequence", needs_dj=True)
    p.add_argument("--H", dest="h_text", required=True, help='sequence, e.g. "1,2,3,4,3,2,1(0)"')

    p = add("hasse", "specialization poset of acceptable sequences", needs_dj=True)
    p.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    p = add("build", "rebuild an ideal to a more general Hilbert function, "
            "keeping its degree-j component", path=None)
    p.add_argument("--from", dest="input_path", required=True, help="source ideal JSON file")
    p.add_argument("--target-H", dest="target_h", required=True)
    p.add_argument("--j", type=int, required=True)

    add("waring", "length, apolar ideal order and decomposition of a dual space",
        path="dual-space JSON file ('-' for stdin)")

    add("related", "ancestor classes reachable by up/down multiplication chains",
        path="space JSON file ('-' for stdin)")

    p = add("random", "sample a space and analyze it", needs_dj=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("verify", "run the acceptance criteria")
    p.add_argument("--max-j", dest="max_j", type=int, default=None,
                   help="cap the sweep bounds for a quicker run")

    return parser


def _config_from_args(args: argparse.Namespace) -> CommandConfig:
    field = FieldSpec.from_name(args.field) if getattr(args, "field", None) else None
    fmt = "json" if getattr(args, "json", False) else "text"
    if getattr(args, "dot", False):
        fmt = "dot"
    return CommandConfig(
        command=args.command,
        fmt=fmt,
        field=field,
        input_path=getattr(args, "input_path", None) or getattr(args, "path", None),
        h_text=getattr(args, "h_text", None),
        target_h=getattr(args, "target_h", None),
        d=getattr(args, "d", None),
        j=getattr(args, "j", None),
        tau=getattr(args, "tau", None),
        c=getattr(args, "c", None),
        seed=getattr(args, "seed", None),
        max_j=getattr(args, "max_j", None),
        show_all=getattr(args, "show_all", False),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status, output = dispatch(_config_from_args(args))
    except PreconditionError as exc:
        print(json.dumps(exc.payload(), sort_keys=True), file=sys.stderr)
        return 1
    except Exception as exc:  # internal assertion failure: always a bug
        payload = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 2
    if output:
        print(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
