"""Time the Q calls at height: `related`, `analyze`, `gcd_of_space` and `waring` of random spaces.

For each (d, j) shape, height h and seed, the d rows of j + 1 entries are
drawn row by row as Fraction(randint(-h, h), randint(1, h)) from
random.Random(seed) and spanned.  Each call then runs in-process on its own
copy of that space (its basis kept, its memos dropped), timed alone, under a
SIGALRM cap: a call past the cap is stopped and printed as "> cap".

  related       related_classes, then each class's generator degrees and
                Hilbert function (what `binforms related` prints)
  analyze       the `binforms analyze` analysis of the space
  gcd_of_space  the gcd of the space's basis
  waring        gad of the space read as dual forms (what `binforms waring` decomposes)
  perp          tau_delta and mu of the space's perp

Prints one markdown table row per (d, j, h, seed), the span's time included.

Usage:
    python3 scripts/q_height_table.py
    python3 scripts/q_height_table.py --shapes 6,21 12,18 --heights 50 1000 2^16 --cap 60
"""

from __future__ import annotations

import argparse
import random
import signal
import time
from fractions import Fraction

from binforms.cli import _analysis
from binforms.fields import QQ
from binforms.ideals import generator_degrees, hilbert_function
from binforms.related import related_classes
from binforms.spaces import FormSpace, gcd_of_space, span
from binforms.waring import DualSpace, gad, mu, perp, tau_delta


def _related(V):
    return [(generator_degrees(I), hilbert_function(I)) for I in related_classes(V)]


def _waring(V):
    return gad(DualSpace(V))


def _perp(V):
    W = perp(V)
    return tau_delta(W), mu(W)


CALLS = {"related": _related, "analyze": _analysis, "gcd_of_space": gcd_of_space, "waring": _waring, "perp": _perp}


class _Cap(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Cap


def _height(text: str) -> int:
    base, _, exp = text.partition("^")
    return int(base) ** int(exp) if exp else int(base)


def _shape(text: str) -> tuple[int, int]:
    d, j = map(int, text.split(","))
    if not 1 <= d <= j:
        raise argparse.ArgumentTypeError(f"need 1 <= d <= j, got {text}")
    return d, j


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", nargs="+", type=_shape, default=[(6, 21), (12, 18)],
                        help="(d, j) pairs written d,j (default 6,21 12,18)")
    parser.add_argument("--heights", nargs="+", default=["50", "1000", "2^16"],
                        help="entry heights h, an integer or b^e (default 50 1000 2^16)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--cap", type=int, default=60, help="seconds allowed per call (default 60)")
    args = parser.parse_args(argv)
    if args.cap < 1:
        parser.error("--cap must be >= 1")
    return args


def draw(d: int, j: int, h: int, seed: int) -> list[list[Fraction]]:
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(j + 1)] for _ in range(d)]


def timed(fn, arg, cap: int) -> str:
    signal.alarm(cap)
    start = time.perf_counter()
    try:
        fn(arg)
    except _Cap:
        return f"> {cap} s"
    finally:
        signal.alarm(0)
    return f"{time.perf_counter() - start:.3f} s"


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    print("| d | j | h | seed | dim | span | " + " | ".join(CALLS) + " |")
    print("|---" * (6 + len(CALLS)) + "|")
    for d, j in args.shapes:
        for h in args.heights:
            for seed in args.seeds:
                rows = draw(d, j, _height(h), seed)
                start = time.perf_counter()
                V = span(QQ, j, rows)
                made = f"{time.perf_counter() - start:.3f} s"
                cells = [timed(fn, FormSpace(QQ, j, V.mat), args.cap) for fn in CALLS.values()]
                print(f"| {d} | {j} | {h} | {seed} | {V.dim} | {made} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
