"""Vector subspaces V of R_j and their shift calculus.

R_s V (s > 0) is the span of all degree-s monomial multiples of V, and
R_{-s} V = {f : R_s f is contained in V}.  tau(V) = dim R_1 V - dim V
measures how far V is from a principal block f.R_{j-c}; it controls the
number of generators of every ideal V determines.  As xV ∩ yV = xy.R_{-1}V,
dim R_1V = 2 dim V - dim R_{-1}V, so `tau` reads whichever neighbour rung is
built.  `shift` walks one-step rungs (`_rungs`), kept on each space, and stops at a zero one:

* A principal block f.R_s (f monic, f = t^a g for t = y/x, k = deg f - a) needs no
  elimination: the row with pivot a+i is e_{a+i} with rho_{s+1-i} in the last k columns,
  rho_m being the remainders of 1/g: rho_0 = (-1, 0, ..., 0), rho_{m+1}[q] = rho_m[q+1]
  - rho_m[0] g[q+1], rho_m[k] = 0.  The rows are written as `ints`: over Q, for l the lcm
  of f's denominators (l.g is primitive, with lead l) and P_m = l^m rho_m, row a+i is
  l^m e_{a+i} + P_m, P_{m+1}[q] = l P_m[q+1] - P_m[0] (l.g)[q+1], the pair (l^m, P_m) divided
  by its gcd at each step, so no entry outgrows the primitive row.  `_principal` reads f off
  the last `ints` row (its pivot is >= s in any RREF of s+1 rows), rejects most other spaces
  on one entry (rho_2[0] = g_2 - g_1^2 in the second-to-last row, g_2 = 0 if k = 1, an int
  tested mod p) and then compares every `ints` row.  R_{+-1} of a block is the block
  f.R_{s+-1}, built from (f, s +- 1) alone in O(1): its rows are written when first read.
* Rungs their dimension pins: R_1V = R_{j+1} iff dim R_{-1}V = 2 dim V - j - 2, read off the
  down-rung (one step, below, kept for the walk down), tried if 2 dim V >= j + 2.
  R_{-1}V = 0 iff dim R_1V = 2 dim V, read off R_1V if built.
* Up, otherwise: R_1V = x.V + y.V, one elimination of 2 dim V rows.  A rung keeps no space
  it was built from, only rows (a space would form a reference cycle).
* mu, dimensions before bases: the d - 1 syzygy degrees of V's basis sum to j - deg gcd V, and
  dim R_kV = d(k+1) - sum_i max(0, k - mu_i + 1) (Hilbert-Burch).  `syzygy_degrees` reads them
  off one order-basis pass.  Unless R_1V is a block or R_2V is pinned full (above), an ideal's
  window sizes each R_kV, 2 <= k < max mu - 1, by them, writes its rows on first read as
  x.R_{k-1}V + y^k.V (x divides every degree-k monomial but y^k), and from there on R_kV is
  the block (gcd V).R_s.
* Down, otherwise, R_{-1}V = {u : x.u, y.u in V}: each z in V^perp gives z[:j].u = 0 and z[1:].u = 0.
  For V = R_{-k}T, V^perp is spanned by the width-(j+1) windows of T^perp's rows, so (R_{-1}V)^perp is
  spanned by V^perp's rows less their first entry and by the windows g[:j] of G, the cod T windows
  that start T^perp's rows.  Each space keeps (E, G) as `_echelon`: E an echelon basis of V^perp, rows
  reversed and keyed by lead, so that dropping a first entry keeps every lead.  `_shift_down_once` extends
  the shortened copy by the windows (`linalg.echelon_extend`, no back-substitution) into R_{-1}V's E.
  A down-rung is the lazy kernel of its E, which is its `_dual`: no rung's rows are written on the way
  down, nor by a membership test, and one `linalg.kernel` writes them when read.  `kernel_space` makes
  such a lazy kernel of independent rows (`waring`'s (Ann W)_{j-1} off tau_delta's RREF, (Ann W)_j off W's).
* Monomial ideals, `monomial_rungs`: a component of (x^p y^q) and its R_1 are spans of unit rows e_b,
  an RREF when sorted by b: read off the exponents with no elimination, R_1 kept as the component's `_up`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import PreconditionError
from .fields import FieldSpec
from .forms import BinaryForm, form_from_json, form_to_json, gcd_rows, json_int, json_list, monic, monomial
from .linalg import (Matrix, _integer_row, _primitive, contains_vector, from_ints, integral_dual, lazy_matrix,
                     zero_matrix)


@dataclass(frozen=True)
class FormSpace:
    field: FieldSpec
    degree: int
    mat: Matrix  # canonical RREF basis, no zero rows

    def __post_init__(self):
        if self.degree < 0 or self.mat.ncols != self.degree + 1:
            raise PreconditionError("basis width must be degree + 1 >= 1", degree=self.degree)

    @property
    def dim(self) -> int:
        return self.mat.nrows

    @property
    def cod(self) -> int:
        return self.degree + 1 - self.dim

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.degree + 1

    def basis_forms(self) -> tuple[BinaryForm, ...]:
        return tuple(BinaryForm(self.field, self.degree, r) for r in self.mat.rows)

    def contains(self, f: BinaryForm) -> bool:
        if f.field != self.field:
            raise PreconditionError("field mismatch")
        return f.degree == self.degree and contains_vector(self._dual, f.coeffs, self.field)

    # The one-step rungs R_1V and R_{-1}V, built on first use and kept on the
    # instance (not as fields, so equality and hashing ignore them).  `shift`
    # walks these, so every rung of a space's ladder is built once.

    @cached_property
    def _up(self) -> FormSpace:
        return _shift_up_once(self)

    @cached_property
    def _down(self) -> FormSpace:
        return _shift_down_once(self)

    @cached_property
    def _dual(self) -> tuple:
        """A basis of V^perp, any one serves (w is in V iff its dot with each row is 0): V's `integral_dual`, or
        for a lazy kernel (a down-rung, `kernel_space`) the rows it is the kernel of, so that none of its rows is
        written."""
        rows = self.__dict__.get("_kernel")
        return integral_dual(self.mat) if rows is None else rows()

    @cached_property
    def _echelon(self) -> tuple[dict, tuple]:
        """(E, G), rows reversed: E a `linalg.echelon_extend` basis of V^perp, G the V^perp rows of the space
        V is a colon space of, cut to width j + 1.  A written space or a `kernel_space` starts from its `_dual`
        (an `integral_dual` is echelon already once reversed: each row leads at its free column); a down-rung
        is made with its own."""
        G = tuple(z[::-1] for z in self._dual)
        return linalg.echelon_extend(self.field, {}, G), G

    @cached_property
    def _mu(self) -> tuple[int, ...]:
        """`syzygy_degrees`: over Q, those of V mod `_SIGMA_PRIME` (V's RREF leads all units there) when
        they are balanced and their gcd degree j - sum is 0 or deg gcd V; else those of V itself."""
        ints, j, p = self.mat.ints, self.degree, self.field.p
        if p is None and len(ints) > 1 and all(next(filter(None, r)) % _SIGMA_PRIME for r in ints):
            mu = _order_basis_degrees([[x % _SIGMA_PRIME for x in r] for r in ints], j, _SIGMA_PRIME)
            if mu[-1] - mu[0] <= 1 and (sum(mu) == j or sum(mu) == j - self._gcd.degree):
                return mu
        return _order_basis_degrees(ints, j, p)

    @cached_property
    def _gcd(self) -> BinaryForm:
        return gcd_rows(self.field, self.degree, self.mat.ints)

    @cached_property
    def _principal(self) -> BinaryForm | None:
        """The monic f with V = f.R_s, or None (closed-form blocks store it).  The last of V's s + 1
        RREF rows has its pivot at column >= s, so f is that `ints` row from column s on, over its lead."""
        p, s, ints = self.field.p, self.dim - 1, self.mat.ints
        if self.is_zero:
            return None
        last = ints[-1]
        c = next(i for i, x in enumerate(last) if x)  # f = last[s:] / a leads at column c
        if s and c < self.degree:  # the one-entry pre-test, rho_2[0] = g_2 - g_1^2, on int rows
            pen, (a, g1, g2) = ints[-2], (last[c:c + 3] + (0,))[:3]  # g_i = last[c + i] / a
            e = pen[c + 1] * a * a - next(filter(None, pen)) * (g2 * a - g1 * g1)
            if e % p if p else e:
                return None
        f = BinaryForm(self.field, self.degree - s, last[s:] if p else tuple(Fraction(x, last[c]) for x in last[s:]))
        return f if all(r == w for r, w in zip(reversed(ints), _block_rows(f, s))) else None


def _block_rows(f: BinaryForm, s: int):
    """The `ints` rows of f.R_s (f monic), last row first: over Q, l.f for l the lcm of f's
    denominators is primitive with lead l, and the row with pivot a + i is (l^m, P_m) made primitive."""
    p, cs = f.field.p, f.coeffs
    a, l = cs.index(1), 1 if p else lcm(*(x.denominator for x in cs))  # f's first 1 leads
    h = rho = cs[a + 1:] if p else tuple(x.numerator * (l // x.denominator) for x in cs[a + 1:])
    lead = l
    for i in range(s, -1, -1):
        yield (0,) * (a + i) + (lead,) + (0,) * (s - i) + rho
        c, rho = (rho[0], rho[1:] + (0,)) if rho else (0, rho)
        if l != 1:  # over Q, (l^m, P_m) over its gcd: P_{m+1}[q] = l P_m[q+1] - P_m[0] (l.g)[q+1]
            rho, lead = tuple(l * r - c * b for r, b in zip(rho, h)), l * lead
            e = gcd(lead, *rho)
            rho, lead = tuple(r // e for r in rho), lead // e
        elif c:
            rho = tuple((r - c * b) % p for r, b in zip(rho, h)) if p else tuple(r - c * b for r, b in zip(rho, h))


def span(field: FieldSpec, degree: int, forms) -> FormSpace:
    """Span of forms or raw coefficient rows, eliminated as the `ints` rows made here, once: a form of
    this field over F_p is taken as it is, a row of ints reduced mod p or taken as it is over Q (no
    Fraction built), any other row (a form's over Q too) put through `FieldSpec.coerce` and over Q one
    `_integer_row`.  Rows of caller-chosen length enter here, so their length is checked here and
    `Matrix` trusts it."""
    p, rows = field.p, []
    for f in forms:
        if isinstance(f, BinaryForm):
            if f.degree != degree:
                raise PreconditionError("spanning form of wrong degree")
            if p and f.field == field:  # residues in [0, p) already
                rows.append(f.coeffs)
                continue
            f = f.coeffs
        row = tuple(f)
        if all(type(c) is int for c in row):  # not bool
            row = tuple(c % p for c in row) if p else row
        else:
            row = tuple(map(field.coerce, row))
            row = row if p else tuple(_integer_row(row))
        if len(row) != degree + 1:
            raise PreconditionError("spanning row of wrong length", degree=degree, length=len(row))
        rows.append(row)
    return FormSpace(field, degree, linalg.rref(from_ints(field, tuple(rows), degree + 1)))


def zero_space(field: FieldSpec, degree: int) -> FormSpace:
    return FormSpace(field, degree, zero_matrix(field, degree + 1))


def full_space(field: FieldSpec, degree: int) -> FormSpace:
    return principal_space(BinaryForm(field, 0, (field.one,)), degree)  # 1.R_degree


def space_sum(a: FormSpace, b: FormSpace) -> FormSpace:
    if a.degree != b.degree or a.field != b.field:
        raise PreconditionError("sum of spaces in different degrees or fields")
    return FormSpace(a.field, a.degree, linalg.rref(from_ints(a.field, a.mat.ints + b.mat.ints, a.degree + 1)))


def contained(inner: FormSpace, outer: FormSpace) -> bool:
    """Whether inner is a subspace of outer (same degree and field, else refused): equal
    canonical bases, or a zero normal form mod outer (read off its `_dual`) for each row."""
    if inner.degree != outer.degree or inner.field != outer.field:
        raise PreconditionError("containment of spaces in different degrees or fields")
    rows = inner.mat.ints
    return rows == outer.mat.ints or all(contains_vector(outer._dual, r, outer.field) for r in rows)


def principal_space(f: BinaryForm, degree: int) -> FormSpace:
    """(f) in the given degree: f * R_s, s = degree - deg f (zero if s < 0), rows written when first read."""
    if degree < f.degree or f.is_zero:
        return zero_space(f.field, degree)
    F, f, s, n = f.field, monic(f), degree - f.degree, degree + 1
    V = FormSpace(F, degree, lazy_matrix(F, s + 1, n, lambda: from_ints(F, tuple(_block_rows(f, s))[::-1], n)))
    V.__dict__["_principal"] = f  # the memo, set the way cached_property would
    return V


def monomial_rungs(field: FieldSpec, pairs) -> list[FormSpace]:
    """[I_lo, .., I_hi] of the ideal I of the monomials x^p y^q, (p, q) in pairs (not empty), on the window
    `ideals.ideal_from_generators` gives it: lo and t the least and top pair degrees, hi = t + 1 + cod I_{t+1}
    (= t + max(1, t + 3 - dim I_{t+1})), I_hi the block (x^min p y^min q).R_s.  Below, I_i is spanned by the
    e_b, q <= b <= i - p for a pair of degree <= i: sorted by b, an RREF, written on first read.  Its `_up`
    is that span in degree i + 1 over the same pairs: I_{i+1} itself when no pair has degree i + 1."""
    F, degs = field, {p + q for p, q in pairs}
    lo, t = min(degs), max(degs)

    def rung(i: int, n: int) -> FormSpace:  # the span in degree n of the pairs of degree <= i
        bs, unit = sorted({b for p, q in pairs if p + q <= i for b in range(q, n - p + 1)}), (0,) * n

        def write() -> Matrix:
            return from_ints(F, tuple(unit[:b] + (1,) + unit[b:] for b in bs), n + 1)

        return FormSpace(F, n, lazy_matrix(F, len(bs), n + 1, write))

    hi = t + 1 + rung(t, t + 1).cod
    gcd_form = monomial(F, min(p for p, _ in pairs), min(q for _, q in pairs))
    comps = [rung(i, i) for i in range(lo, hi)] + [principal_space(gcd_form, hi)]
    for i, (comp, nxt) in enumerate(zip(comps, comps[1:]), lo):
        comp.__dict__["_up"] = rung(i, i + 1) if i + 1 in degs else nxt
    return comps


# ----- shifts -------------------------------------------------------------------


def _ladder_step(F: FieldSpec, rung: Matrix, base, k: int) -> Matrix:
    """The basis of x.R_{k-1}B + y^k.B from R_{k-1}B's matrix and B's `ints`: x.f appends a 0."""
    rows = tuple(r + (0,) for r in rung.ints) + tuple((0,) * k + b for b in base)
    return linalg.rref(from_ints(F, rows, rung.ncols + 1))


def _shift_up_once(V: FormSpace) -> FormSpace:
    """R_1V: f.R_{s+1} for a block f.R_s, else x.V + y.V."""
    F, j = V.field, V.degree
    if V._principal is not None:
        return principal_space(V._principal, j + 1)
    if 2 * V.dim >= j + 2 and _fills_next(V):  # dim R_1V <= 2 dim V
        return full_space(F, j + 1)
    return FormSpace(F, j + 1, _ladder_step(F, V.mat, V.mat.ints, 1))


def _shift_down_once(V: FormSpace) -> FormSpace:
    """R_{-1}V: f.R_{s-1} for a block f.R_s (not tested on a lazy kernel, whose rows may be unwritten), zero
    when pinned, else the lazy kernel of E for (E, G), its `_echelon`, made here, |E| = j - dim R_{-1}V:
    (R_{-1}V)^perp is spanned by z[1:] (y.z) and z[:j] (x.z) for z in V^perp, that is by V's E less each row's
    first entry (its last, reversed: every lead stays, and a row leading there is gone) and the windows g[:j]
    of V's G: any other z[:j] is a window of T^perp starting past T's first column, some z[1:] already."""
    F, j = V.field, V.degree  # j >= 1: `shift` refuses to go below degree 0
    up = V.__dict__.get("_up")
    if "_kernel" not in V.__dict__ and V._principal is not None:
        return principal_space(V._principal, j - 1)  # zero below deg f
    if V.is_zero or up is not None and up.dim == 2 * V.dim:
        return zero_space(F, j - 1)
    E, G = V._echelon
    G = tuple(g[1:] for g in G)
    E = linalg.echelon_extend(F, {c: r[:-1] for c, r in E.items() if c < j}, G)
    down = _lazy_kernel(F, j - 1, len(E), lambda: tuple(r[::-1] for r in E.values()))
    down.__dict__["_echelon"] = E, G
    return down


def _lazy_kernel(F: FieldSpec, degree: int, rank: int, rows) -> FormSpace:
    """The space whose `_dual` is the `rank` independent int rows rows(), the thunk kept as its `_kernel` (over
    rows, or `waring.perp`'s V, never a space that keeps this one), its rows written by one `linalg.kernel`."""
    n = degree + 1
    V = FormSpace(F, degree, lazy_matrix(F, n - rank, n, lambda: linalg.kernel(from_ints(F, rows(), n))))
    V.__dict__["_kernel"] = rows
    return V


def kernel_space(field: FieldSpec, degree: int, dual: tuple) -> FormSpace:
    """The degree-`degree` forms whose dot with each of the independent int rows `dual` (residues over F_p) is 0,
    a lazy kernel: its `_echelon` echelonizes them when a walk down first reads it, and no rung is put in RREF."""
    return _lazy_kernel(field, degree, len(dual), lambda: dual)


def _fills_next(V: FormSpace) -> bool:
    """Whether R_1V = R_{j+1}: dim R_1V = 2 dim V - dim R_{-1}V, the down-rung built here kept for the walk."""
    return 2 * V.dim - V._down.dim == V.degree + 2


def shift(V: FormSpace, s: int) -> FormSpace:
    """R_s V (s >= 0) or the colon space (s < 0); steps never mix signs, and past a zero rung it is zero."""
    rungs = _rungs(V, s)
    return rungs[-1] if len(rungs) > abs(s) else zero_space(V.field, V.degree + s)


def _rungs(V: FormSpace, s: int) -> list[FormSpace]:
    """[V, R_{±1}V, .., R_sV] in one walk of V's memoized rungs, cut after its first zero rung (all past it are)."""
    if V.degree + s < 0:
        raise PreconditionError(f"shift to negative degree {V.degree + s}")
    rungs = [V]
    while len(rungs) <= abs(s) and not rungs[-1].is_zero:
        rungs.append(rungs[-1]._up if s > 0 else rungs[-1]._down)
    return rungs


def _up_dim(W: FormSpace) -> int:
    """dim R_1W, read off R_{-1}W (built, or W a down-rung) or a block's f if known, else off R_1W."""
    if "_down" in W.__dict__ or W.degree and "_kernel" in W.__dict__:
        return 2 * W.dim - W._down.dim
    return W.dim + 1 if W.__dict__.get("_principal") is not None else W._up.dim


def tau(V: FormSpace) -> int:
    return _up_dim(V) - V.dim


def gcd_of_space(V: FormSpace) -> BinaryForm:
    if V.is_zero:
        raise PreconditionError("gcd of the zero space")
    return V._gcd


_SIGMA_PRIME = 2**31 - 1  # `_mu`'s prime over Q


def syzygy_degrees(V: FormSpace) -> tuple[int, ...]:
    """mu(V), ascending, kept on V (see the header).  Over Q a pass mod p can only lower each dim R_kV,
    and for a fixed sum a balanced mu gives the largest: so a balanced mu mod p of the right sum is mu."""
    if V.is_zero:
        raise PreconditionError("syzygy degrees of the zero space")
    return V._mu


def _order_basis_degrees(rows, j: int, p: int | None) -> tuple[int, ...]:
    """mu of independent rows (`ints`, or residues mod p) by one order-basis pass on their polynomials
    in t (Beckermann-Labahn, SIAM J. Matrix Anal. Appl. 15, 1994).  Rows p_i start at the identity; only
    their degrees delta and residuals q_i = p_i.v from order s on are kept.  At order s the least-delta row
    (first on ties) with a nonzero residual clears the others' and is multiplied by t (its list stays,
    delta + 1); each other list drops its zero.  Once d - 1 rows have s > j + delta, q_i = 0: their delta is mu."""
    q, delta, s = [list(r) for r in rows], [0] * len(rows), 0
    while sum(j + e < s for e in delta) < len(rows) - 1:
        live = [i for i, r in enumerate(q) if r and r[0]]
        k = min(live, key=delta.__getitem__, default=None)
        if k is not None:
            piv, lead = q[k], q[k][0]
            inv = pow(lead, -1, p) if p else None
            delta[k] += 1
        for i, r in enumerate(q):
            if i == k:
                continue
            if not r or not r[0]:
                q[i] = r[1:]
            elif p:  # piv is no longer than r, as delta_k <= delta_i
                c = r[0] * inv % p
                q[i] = [(a - c * b) % p for a, b in zip(r[1:], piv[1:])] + r[len(piv):]
            else:  # fraction-free, made primitive
                g = gcd(lead, r[0])
                a0, c = lead // g, r[0] // g
                q[i] = _primitive([a0 * a - c * b for a, b in zip(r[1:], piv[1:])] + [a0 * a for a in r[len(piv):]])
        s += 1
    return tuple(sorted(e for e in delta if j + e < s))


def _up_rungs(V: FormSpace, top: int) -> list[FormSpace]:
    """[V, R_1V, .., R_topV], R_topV a block: `_rungs` when R_1V (built as `tau` builds it) or R_2V is one,
    else R_kV sized by mu, rows written on first read, up to the blocks (gcd V).R_s; a built rung is kept."""
    rungs = _rungs(V, 1)
    up = rungs[-1]  # R_2V can be R_{j+2} only if 2 dim R_1V - dim V >= j + 3, as R_{-1}R_2V contains V
    if up._principal is not None or 2 * up.dim - V.dim >= up.degree + 2 and _fills_next(up):
        return _rungs(V, top)
    F, j, d, mu = V.field, V.degree, V.dim, syzygy_degrees(V)
    if mu[-1] - 1 > top:  # R_kV is a block from k = max mu - 1 on
        raise RuntimeError("postcondition failed: ideal window ended before its components stabilized")
    base = V.mat.ints
    for k in range(2, top + 1):
        W = rungs[-1]
        if "_up" not in W.__dict__ and k < mu[-1] - 1:
            n, write = d * (k + 1) - sum(max(0, k - m + 1) for m in mu), partial(_ladder_step, F, W.mat, base, k)
            W.__dict__["_up"] = FormSpace(F, j + k, lazy_matrix(F, n, j + k + 1, write))
        elif "_up" not in W.__dict__:
            W.__dict__["_up"] = full_space(F, j + k) if sum(mu) == j else principal_space(V._gcd, j + k)
        rungs.append(W._up)
    return rungs


def equivalent(V: FormSpace, W: FormSpace) -> bool:
    """Whether V and W have the same ancestor ideal, by one rule for every pair of degrees:
    the tau values agree (compared first: one rung each) and the higher space is the up-shift
    of the lower (shifting inside the stable range preserves the ancestor ideal; a tau drop
    means the ideal changed).  Same degree is a shift by 0; a zero space has tau 0, any other >= 1.
    """
    if V.field != W.field:
        raise PreconditionError("field mismatch")
    lo, hi = (V, W) if V.degree < W.degree else (W, V)
    return tau(lo) == tau(hi) and shift(lo, hi.degree - lo.degree).mat.ints == hi.mat.ints


def random_space(d: int, j: int, field: FieldSpec, seed) -> FormSpace:
    """Deterministic d-dimensional sample; redraws until full rank."""
    if not 0 <= d <= j + 1:
        raise PreconditionError(f"need 0 <= d <= j+1, got d={d}, j={j}")
    rng = random.Random(f"formspace|{seed}|{d}|{j}|{field.name}")
    while True:
        V = span(field, j, [[field.random_scalar(rng) for _ in range(j + 1)] for _ in range(d)])
        if V.dim == d:
            return V


# ----- JSON ---------------------------------------------------------------------


def space_to_json(V: FormSpace) -> dict:
    return {
        "degree": V.degree,
        "field": V.field.name,
        "basis": [form_to_json(f) for f in V.basis_forms()],
    }


def space_from_json(obj: dict, field: FieldSpec | None = None) -> FormSpace:
    try:
        fld = field or FieldSpec.from_name(obj["field"])
        degree = json_int(obj["degree"])
        basis = [form_from_json(fld, b) for b in json_list(obj["basis"])]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"bad space JSON: {exc}") from None
    return span(fld, degree, basis)
