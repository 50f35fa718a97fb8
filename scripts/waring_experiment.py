"""Sample dual spaces and compare observed Waring lengths with closed forms.

For each ambient degree j in a range and each dual dimension c, the script
draws random dual spaces over F_p, records the apolar order mu, compares the
sample mode against the generic prediction (c(j+2)/(c+1) rounded down when
c < j/2, else j), and tallies how often the computed apolar form splits into
linear factors over F_p (a generalized additive decomposition exists over the
base field) versus not.

Usage:
    python3 scripts/waring_experiment.py --min-j 4 --max-j 10 --samples 50
    python3 scripts/waring_experiment.py --p 211 --seed 1
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from binforms.fields import GF
from binforms.waring import GAD, gad, mu, mu_generic, random_dual, tau_delta


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-j", type=int, default=4)
    parser.add_argument("--max-j", type=int, default=10)
    parser.add_argument("--p", type=int, default=101,
                        help="prime modulus (must exceed max-j)")
    parser.add_argument("--samples", type=int, default=50,
                        help="dual spaces per (j, c) cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.min_j <= args.max_j:
        parser.error("need 1 <= min-j <= max-j")
    if args.p <= args.max_j:
        parser.error("--p must exceed --max-j")
    return args


def run(args: argparse.Namespace) -> int:
    field = GF(args.p)
    print(f"field F_{args.p}, {args.samples} samples per cell, seed {args.seed}")
    print(f"{'j':>3} {'c':>3} {'predicted':>9} {'mode':>5} {'hit%':>6} "
          f"{'split':>6} {'unsplit':>8} {'tau_delta range':>16}")

    worst_hit_rate = 1.0
    for j in range(args.min_j, args.max_j + 1):
        for c in range(1, j):
            mus: Counter[int] = Counter()
            taus: Counter[int] = Counter()
            split = unsplit = 0
            for s in range(args.samples):
                W = random_dual(c, j, field,
                                seed=args.seed + 7919 * j + 191 * c + s)
                mus[mu(W)] += 1
                taus[tau_delta(W)] += 1
                if isinstance(gad(W), GAD):
                    split += 1
                else:
                    unsplit += 1
            predicted = mu_generic(min(c + 1, j + 1 - c), j + 1 - c, j)  # the largest tau_delta
            mode, _ = mus.most_common(1)[0]
            hits = mus[predicted] / args.samples
            worst_hit_rate = min(worst_hit_rate, hits)
            trange = f"{min(taus)}..{max(taus)}"
            print(f"{j:>3} {c:>3} {predicted:>9} {mode:>5} {hits:>6.0%} "
                  f"{split:>6} {unsplit:>8} {trange:>16}")

    print()
    print(f"worst per-cell rate of mu == generic prediction: "
          f"{worst_hit_rate:.0%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
