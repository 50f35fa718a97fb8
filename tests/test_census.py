"""A census of every stratum over a small field.

`oracles.census` counts every V in Grass(d, R_j)(F_q) by the Hilbert function of
its ancestor ideal, for q = 2 with j <= 5 and q = 3 with j <= 4 (6,179 spaces),
and each H's points again by r, the number of `related_classes` of V.  The counts
are independent of `dims` and of every closed formula, and are pinned in
`golden/census.json` as H: [points, monomial points, {r: points}].  Record that
file again only when a count's change is intended:

    PYTHONPATH=src python tests/test_census.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from binforms.hilbert import enumerate_acceptable, tau_of_h
from binforms.osequence import parse_oseq
from oracles import census

GOLDEN = Path(__file__).resolve().parent / "golden" / "census.json"
CELLS = [(q, d, j) for q, top in ((2, 5), (3, 4)) for j in range(1, top + 1) for d in range(1, j + 1)]


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _table() -> dict:
    return {
        f"q={q} d={d} j={j}": {
            str(H): [points, monomial, {str(r): n for r, n in by_r.items()}]
            for H, (points, monomial, by_r) in census(d, j, q).items()
        }
        for q, d, j in CELLS
    }


def test_census_of_every_stratum_over_f2_and_f3():
    table, torus = _table(), 0
    for q, d, j in CELLS:
        counts = table[f"q={q} d={d} j={j}"]
        assert sum(points for points, _, _ in counts.values()) == _gaussian_binomial(j + 1, d, q), (q, d, j)
        acceptable = {str(H) for H in enumerate_acceptable(d, j)}
        assert set(counts) <= acceptable, (q, d, j, set(counts) - acceptable)
        assert acceptable <= set(counts), (q, d, j, acceptable - set(counts))
        for H, (points, _, by_r) in counts.items():  # 1 <= r <= 2^τ - 1 at every point
            assert sum(by_r.values()) == points, (q, d, j, H)
            top = 2 ** tau_of_h(parse_oseq(H), j) - 1
            assert all(1 <= int(r) <= top for r in by_r), (q, d, j, H, by_r)
        if q == 3:  # the torus diag(1, t) fixes the monomial points; its other orbits have q - 1 points
            for H, (points, monomial, _) in counts.items():
                assert (points - monomial) % (q - 1) == 0, (d, j, H)
                torus += 1
    assert torus == 22
    assert table == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cells = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in _table().items())
    GOLDEN.write_text("{\n" + cells + "\n}\n", encoding="utf-8")
