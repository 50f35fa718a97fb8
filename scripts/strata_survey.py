"""Survey every acceptable Hilbert-function stratum up to a degree bound.

For each (d, j) with d <= j <= --max-j the script enumerates the acceptable
sequences and evaluates all dimension/codimension formulas for each one,
accumulating every formula discrepancy encountered.  The enumeration checks
each (tau, c) class's size against the closed-form partition count itself
(`enumerate_acceptable` raises on a mismatch), so nothing here recounts them.

Usage:
    python3 scripts/strata_survey.py --max-j 8
    python3 scripts/strata_survey.py --max-j 6 --per-sequence
"""

from __future__ import annotations

import argparse
from collections import Counter

from binforms.hilbert import dims, enumerate_acceptable


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-j", type=int, default=8,
                        help="largest ambient degree j to survey (default 8)")
    parser.add_argument("--per-sequence", action="store_true",
                        help="also print one line per sequence")
    args = parser.parse_args(argv)
    if args.max_j < 1:
        parser.error("--max-j must be >= 1")
    return args


def survey(args: argparse.Namespace) -> None:
    total_sequences = 0
    discrepancy_tally: Counter[str] = Counter()
    flagged_sequences = 0

    for j in range(1, args.max_j + 1):
        for d in range(1, j + 1):
            seqs = enumerate_acceptable(d, j)
            total_sequences += len(seqs)
            for H in seqs:
                report = dims(H, d, j)
                if report.discrepancies:
                    flagged_sequences += 1
                    for entry in report.discrepancies:
                        discrepancy_tally[entry.split(":")[0]] += 1
                if args.per_sequence:
                    flags = ",".join(e.split(":")[0] for e in report.discrepancies)
                    print(f"d={d} j={j}  {str(H):<24} tau={report.tau} "
                          f"c={report.c} cod={report.cod_grass}"
                          + (f"  [{flags}]" if flags else ""))

    print()
    print(f"surveyed {total_sequences} acceptable sequences, "
          f"d <= j <= {args.max_j}")
    print(f"sequences with >= 1 formula discrepancy: {flagged_sequences}")
    if discrepancy_tally:
        print("discrepancies by formula (all on c > 0 sequences):")
        for name, n in sorted(discrepancy_tally.items()):
            print(f"  {name:<8} {n}")


def main(argv: list[str] | None = None) -> None:
    survey(parse_args(argv))


if __name__ == "__main__":
    main()
