"""Survey every acceptable Hilbert-function stratum up to a degree bound.

For each (d, j) with d <= j <= --max-j the script enumerates the acceptable
sequences, tabulates how many fall in each (tau, c) class against the
closed-form partition count, and evaluates all dimension/codimension formulas
for each sequence, accumulating every formula discrepancy encountered.

Usage:
    python3 scripts/strata_survey.py --max-j 8
    python3 scripts/strata_survey.py --max-j 6 --per-sequence
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from binforms.hilbert import count_by_tau, dims, enumerate_acceptable


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


def survey(args: argparse.Namespace) -> int:
    total_sequences = 0
    count_mismatches = 0
    discrepancy_tally: Counter[str] = Counter()
    flagged_sequences = 0
    flagged_c0 = 0

    for j in range(1, args.max_j + 1):
        for d in range(1, j + 1):
            seqs = enumerate_acceptable(d, j)
            total_sequences += len(seqs)
            by_class = Counter()
            for H in seqs:
                report = dims(H, d, j)
                by_class[(report.tau, report.c)] += 1
                if report.discrepancies:
                    flagged_sequences += 1
                    for entry in report.discrepancies:
                        discrepancy_tally[entry.split(":")[0]] += 1
                if args.per_sequence:
                    flags = ",".join(e.split(":")[0] for e in report.discrepancies)
                    print(f"d={d} j={j}  {str(H):<24} tau={report.tau} "
                          f"c={report.c} cod={report.cod_grass}"
                          + (f"  [{flags}]" if flags else ""))
            for (t, c), n in sorted(by_class.items()):
                formula = count_by_tau(d, j, t, c)
                if formula != n:
                    count_mismatches += 1
                    print(f"COUNT MISMATCH d={d} j={j} tau={t} c={c}: "
                          f"enumerated {n}, formula {formula}")

    print()
    print(f"surveyed {total_sequences} acceptable sequences, "
          f"d <= j <= {args.max_j}")
    print(f"counting-formula mismatches: {count_mismatches}")
    print(f"sequences with >= 1 formula discrepancy: {flagged_sequences}")
    if discrepancy_tally:
        print("discrepancies by formula (all on c > 0 sequences):")
        for name, n in sorted(discrepancy_tally.items()):
            print(f"  {name:<8} {n}")
    return 1 if count_mismatches else 0


def main(argv: list[str] | None = None) -> int:
    return survey(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
