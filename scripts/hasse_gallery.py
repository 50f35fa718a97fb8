"""Emit DOT files for the specialization posets over a range of (d, j).

One file per pair, named hasse_d<d>_j<j>.dot, generic stratum drawn at the
bottom. Render with e.g. `dot -Tsvg hasse_d4_j5.dot -o hasse_d4_j5.svg`.

Usage:
    python3 scripts/hasse_gallery.py --max-j 6 --out-dir out/
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from binforms.cli import main as binforms_main


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-j", type=int, default=6)
    parser.add_argument("--out-dir", type=Path, default=Path("hasse_out"))
    args = parser.parse_args(argv)
    if args.max_j < 1:
        parser.error("--max-j must be >= 1")
    return args


def run(args: argparse.Namespace) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for j in range(1, args.max_j + 1):
        for d in range(1, j + 1):
            dot = io.StringIO()
            with redirect_stdout(dot):
                status = binforms_main(["hasse", "--d", str(d), "--j", str(j), "--dot"])
            if status != 0:
                raise RuntimeError(f"binforms hasse failed for d={d}, j={j}")
            path = args.out_dir / f"hasse_d{d}_j{j}.dot"
            path.write_text(dot.getvalue())
            written += 1
            lines = dot.getvalue().splitlines()
            edges = sum("->" in line for line in lines)
            nodes = sum(line.endswith('";') for line in lines) - edges
            print(f"{path}  ({nodes} nodes, {edges} edges)")
    print(f"\nwrote {written} DOT files to {args.out_dir}/")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
