"""Apolar duality for spaces of binary forms.

R = k[x,y] acts on a second polynomial ring k[X,Y] by contraction
(differentiation without the constants), and the pairing R_j x dual_j -> k
is perfect whenever char k = 0 or p > j.  A c-dimensional subspace W of
degree-j dual forms is cut out by the level ideal of the d-dimensional
space V = (Ann W)_j, d = j+1-c, and the initial degree mu(W) of that
annihilator measures how many powers of linear dual forms are needed to
span W.  This module computes perp/annihilator, tau_delta and mu, extracts
generalized additive decompositions by factoring a minimal-degree apolar
form, and evaluates the generic-value formulas mu(tau,d,j) and the
codimension of the locus where mu drops.  `_ann_component` has one rule:
(Ann W)_i is the kernel of the degree-i catalecticant (the `linalg.hankel`
windows of width i+1 of W's weighted rows), whatever i is, and tau_delta is
the rank of the degree-(j-1) one.  Below degree j+1 each component of Ann W
is the colon R_{-1} of the next, so mu is read off the down-rungs of one
catalecticant kernel, taken at the bound mu_generic(tau_delta, d, j).  When
mu_generic >= j-1, mu starts from tau_delta's elimination instead: the kernel
of its RREF is (Ann W)_{j-1}, and when that is 0, mu = j.  `gad` certifies
its decompositions on int lists and builds forms only for its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import ge, mul

from . import linalg
from .errors import PreconditionError
from .fields import FieldSpec
from .forms import BinaryForm, _linear_split, _monic_form, _power_list, monic, require_pairing_char
from .hilbert import _acceptable_pq, dual_partition, ell, is_permissible_nose
from .ideals import GradedIdeal, level_ideal
from .linalg import Matrix, _integer_row, from_ints, hankel, kernel
from .osequence import OSequence, oseq
from .spaces import (
    FormSpace,
    full_space,
    kernel_space,
    random_space,
    shift,
    span,
    space_from_json,
)

DUAL_VARS = ("X", "Y")


# ── dual spaces ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class DualSpace:
    """A subspace of the degree-j dual forms in X, Y (canonical RREF basis).
    Its weighted rows, the RREF of its degree-(j-1) catalecticant (tau_delta's) and
    (mu, (Ann W)_mu) are cached, not fields; any other catalecticant kernel eliminates afresh."""

    space: FormSpace

    def __post_init__(self):
        require_pairing_char(self.space.field, self.space.degree)

    @cached_property
    def _weighted(self) -> tuple[tuple, ...]:
        """W's `ints` rows with entry a scaled by the pairing weight (j-a)! a!: integer rows
        over Q, residues over F_p.

        In coefficient coordinates the degree-j contraction pairing is diagonal
        with these weights, so this is the one place they are applied.
        """
        p, j = self.field.p, self.degree
        if not self.dim:  # no row to weight, so no j + 1 weights to build
            return ()
        fact = list(accumulate(range(1, j + 1), lambda f, k: f * k % p if p else f * k, initial=1))  # 0!..j!
        weights = [fact[j - a] * fact[a] for a in range(j + 1)]
        rows = (map(mul, r, weights) for r in self.space.mat.ints)
        return tuple(tuple(x % p for x in r) if p else tuple(r) for r in rows)

    @cached_property
    def _catalecticant(self) -> Matrix:
        """The RREF of the degree-(j-1) catalecticant, eliminated once in plain column order.  R_1.W is
        the complement of (Ann W)_{j-1} under the perfect degree-(j-1) pairing (f kills x.w and y.w iff
        f.w = 0), so its rank is dim R_1.W and its rows span the dot-dual of (Ann W)_{j-1}.  At j = 0
        the degree -1 catalecticant has no columns, and the zero space has no rows."""
        return linalg.rref(hankel(self.field, self._weighted, self.degree))

    @cached_property
    def _initial(self) -> tuple[int, FormSpace]:
        """mu(W) and (Ann W)_mu, walked down from mu_g = mu_generic(tau_delta, d, j).

        mu_g bounds mu, and one kernel checks it: (Ann W)_{mu_g} = 0 raises.
        For 1 <= i <= j, (Ann W)_{i-1} = R_{-1}(Ann W)_i, as f.w of positive
        degree killed by x and y is 0; so the down-rungs of (Ann W)_{mu_g} are
        the lower components, and the lowest nonzero one is (Ann W)_mu.  From
        mu_g >= j-1 on, no catalecticant is eliminated again: (Ann W)_{j-1} is
        the `kernel_space` of tau_delta's RREF, and when it is 0 (then
        tau_delta = d and mu_g = j) mu = j and (Ann W)_j is the `kernel_space`
        of W's weighted rows.  The full dual space (d = 0) has mu = j+1, where
        that identity fails.
        """
        F, j, d = self.field, self.degree, self.space.cod
        if d == 0:
            return j + 1, full_space(F, j + 1)
        top, red = mu_generic(tau_delta(self), d, j), self._catalecticant
        if red.nrows == j:  # (Ann W)_{j-1} = 0
            return j, kernel_space(F, j, self._weighted)
        comp = kernel_space(F, j - 1, red.ints) if top >= j - 1 else _ann_component(self, top)
        if comp.is_zero:
            raise RuntimeError(f"(Ann W)_{top} = 0: mu exceeds its bound mu_generic = {top}")
        while comp.degree and shift(comp, -1).dim:
            comp = shift(comp, -1)
        return comp.degree, comp

    @property
    def field(self) -> FieldSpec:
        return self.space.field

    @property
    def degree(self) -> int:
        return self.space.degree

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_forms(self):
        return self.space.basis_forms()


def dual_space(field: FieldSpec, degree: int, forms) -> DualSpace:
    return DualSpace(span(field, degree, forms))


def random_dual(c: int, j: int, field: FieldSpec, seed) -> DualSpace:
    """Deterministic c-dimensional sample of degree-j dual forms."""
    return DualSpace(random_space(c, j, field, seed))


def dual_from_json(obj: dict, field: FieldSpec | None = None) -> DualSpace:
    return DualSpace(space_from_json(obj, field))


# ── the contraction pairing: perp and annihilator ─────────────────────────────


def perp(V: FormSpace) -> DualSpace:
    """V^perp, the dual forms killed by every element of V; dim V^perp = j+1 - dim V.

    The pairing is symmetric, so V^perp = (Ann V)_j with V read as dual forms:
    the kernel of V's weighted rows, which are its degree-j catalecticant.
    """
    return DualSpace(_ann_component(DualSpace(V), V.degree))


def _ann_component(W: DualSpace, i: int) -> FormSpace:
    """(Ann W)_i = {f in R_i : f . w = 0 for all w in W}: the kernel of the degree-i catalecticant,
    the windows w'[r : r + i + 1] (r = 0..j-i) of W's weighted rows w'_a = (j-a)! a! w_a.  The Y^r
    coefficient of f . w is sum_k f_k w'_{k+r} / ((j-i-r)! r!), and those divisors are invertible.
    For i > j (or W = 0) there are no windows, so the kernel is all of R_i."""
    return FormSpace(W.field, i, kernel(hankel(W.field, W._weighted, i + 1)))


def annihilator(W: DualSpace) -> GradedIdeal:
    """The ideal of forms contracting W to zero: the level ideal of its
    degree-j part V, so annihilator(perp(V)) == level_ideal(V).  V is the lazy `kernel_space` of W's
    weighted rows, as `_initial` builds it when mu = j: the walk down reduces windows of those rows only."""
    return level_ideal(kernel_space(W.field, W.degree, W._weighted))


def tau_delta(W: DualSpace) -> int:
    """1 + dim R_1.W - dim W = tau((Ann W)_j): 1 + the rank of the degree-(j-1) catalecticant - dim W,
    eliminated once per dual space (the zero space gets 1; at j = 0 the answer is 1 - dim W)."""
    return 1 + W._catalecticant.nrows - W.dim


def mu(W: DualSpace) -> int:
    """Initial degree of the annihilator; c <= mu(W) <= mu_generic(tau_delta).

    One catalecticant kernel at the bound (from mu_generic >= j-1 on, tau_delta's
    elimination), then down-rungs to the lowest nonzero component (j+1 when W is
    the full dual space).
    """
    return W._initial[0]


# ── generalized additive decompositions ───────────────────────────────────────


@dataclass(frozen=True)
class GAD:
    """W inside span{X^s Y^t L_i^{j+1-beta_i} : s+t = beta_i - 1}.

    `gad` builds it from the distinct linear factors of an apolar form, so
    linear_forms are pairwise independent and each weight (a multiplicity)
    is >= 1; length is mu = sum of the weights.  cofactors[k][i] is the degree
    beta_i - 1 multiplier of L_i^{j+1-beta_i} for the k-th basis element of W."""

    linear_forms: tuple[BinaryForm, ...]
    weights: tuple[int, ...]
    cofactors: tuple[tuple[BinaryForm, ...], ...]

    @property
    def length(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class Unsplit:
    """No row of (Ann W)_mu's canonical basis splits over the base field; form is the
    rootless part of the lex-first row.  Other apolar forms of degree mu may split."""

    form: BinaryForm


def _dual_of_linear(l: BinaryForm) -> BinaryForm:
    # l = c0 x + c1 y kills L = c1 X - c0 Y under contraction
    F = l.field
    c0, c1 = l.coeffs
    return monic(BinaryForm(F, 1, (c1, F.coerce(-c0))))


def gad(W: DualSpace) -> GAD | Unsplit:
    """Decompose W through powers of linear dual forms.

    Tries the rows f of the canonical basis of (Ann W)_mu, lex-smallest
    first, by their rootless part alone, and extracts roots over the base
    field only for the form it keeps, the first with a constant remainder:
    the GAD has L_i dual to its linear factors and weights equal to their
    multiplicities, together with per-basis-element cofactors.  If no
    candidate splits, returns Unsplit with the rootless part of the
    lex-first candidate.

    One kernel per split candidate certifies and solves, on int lists (`Matrix.ints`):
    with columns w_1..w_c (W's basis) and g_1..g_m, g = X^sY^t L_i^{j+1-beta_i} the
    power's list shifted by t, its RREF basis has c rows with pivots 0..c-1 iff the g
    are independent and span every w, and then row k is z = (z_k e_k | -coords of
    z_k w_k).  Over Q, w_k is lambda_k times W's basis element and L_i's primitive row
    s_i times L_i, so a coordinate times s_i^{j+1-beta_i} / (z_k lambda_k) is the
    cofactor's.  Each z is checked to reconstruct z_k w_k from the g.
    """
    F, p, j, c = W.field, W.field.p, W.degree, W.dim
    m, comp = W._initial
    first_rem = None
    for row in comp.mat.ints[::-1]:  # lex-smallest first: a later RREF row is 0 at an earlier one's pivot 1
        rem, split = _linear_split(F, row)
        if first_rem is None:
            first_rem = rem
        if len(rem) > 1:
            continue
        factors = split()
        linear_forms = tuple(_dual_of_linear(l) for l, _ in factors)
        weights = tuple(b for _, b in factors)
        if sum(weights) != m:
            raise RuntimeError("factor multiplicities do not add up to mu")
        lins = [L.coeffs if p else _integer_row(L.coeffs) for L in linear_forms]
        powers = [_power_list(*L, j + 1 - b, p) for L, b in zip(lins, weights)]
        # factor by factor, t = 0..b-1 inside each: the cofactor slices read this order
        gens = [[0] * t + P + [0] * (b - 1 - t) for P, b in zip(powers, weights) for t in range(b)]
        ws = W.space.mat.ints
        ker = kernel(from_ints(F, tuple(zip(*ws, *gens)), c + m)).ints
        if len(ker) != c or any(not z[k] for k, z in enumerate(ker)):
            raise RuntimeError("dual space escapes its apolar power span")
        scales = [1 if p else next(filter(None, L)) ** (j + 1 - b) for L, b in zip(lins, weights) for _ in range(b)]
        cofactors = []
        for k, (w, z) in enumerate(zip(ws, ker)):
            acc = [z[k] * x for x in w]  # reconstruct to be safe: z_k w_k + sum z_i g_i = 0
            for x, g in zip(z[c:], gens):
                if x:
                    acc = [a + x * v for a, v in zip(acc, g)]
            if any(a % p if p else a for a in acc):
                raise RuntimeError("cofactor reconstruction mismatch")
            den = 1 if p else z[k] * next(filter(None, w))
            coords = [-x % p if p else Fraction(-x * s, den) for x, s in zip(z[c:], scales)]
            cofactors.append(tuple(
                BinaryForm(F, b - 1, tuple(coords[end - b : end])) for b, end in zip(weights, accumulate(weights))
            ))
        return GAD(linear_forms, weights, tuple(cofactors))
    return Unsplit(_monic_form(F, first_rem))


# ── generic values of mu and the drop-locus codimension ───────────────────────


def mu_generic(tau: int, d: int, j: int) -> int:
    """j+1 - ceil(d/tau), the largest (and generic) mu among W with
    tau_delta(W) = tau, c = j+1-d."""
    if not 1 <= d <= j + 1:
        raise PreconditionError("need 1 <= d <= j+1", d=d, j=j)
    if not 1 <= tau <= min(d, j + 2 - d):
        raise PreconditionError(
            "need 1 <= tau <= min(d, j+2-d)", tau=tau, d=d, j=j
        )
    return j + 1 - (-(-d // tau))


def n_mu_tau(mu_: int, tau: int, d: int, j: int) -> OSequence:
    """The termwise-largest level sequence with the given tau and order
    at most mu_: min{i+1, mu_, c + (tau-1)(j-i)} below j+1, then zero."""
    mmax = mu_generic(tau, d, j)
    c = j + 1 - d
    if not c <= mu_ <= mmax:
        raise PreconditionError(
            "need c <= mu <= mu_generic(tau, d, j)", mu=mu_, lo=c, hi=mmax
        )
    vals = [min(i + 1, mu_, c + (tau - 1) * (j - i)) for i in range(j + 1)]
    N = oseq(vals, 0)
    if N.order() != mu_:
        raise RuntimeError("level nose has the wrong order")
    if not is_permissible_nose(N, d, j):
        raise RuntimeError("level nose fails permissibility")
    return N


def gad_locus_codim(mu_: int, tau: int, c: int, j: int) -> int:
    """Codimension, inside the tau-fixed Grassmannian stratum, of the locus
    where mu drops to mu_ or below.

    Computed as ell of the dual of the nose partition of n_mu_tau; on the
    range where the locus is non-empty (mu_ >= c + tau - 1) and the nose
    has no jump at mu_ this equals the closed form (j - mu_)tau - (d - 1),
    which is asserted.
    """
    d = j + 1 - c
    N = n_mu_tau(mu_, tau, d, j)
    A = dual_partition(_acceptable_pq(N, d, j, ge)[0])  # N's nose partition P
    value = ell(A)
    if mu_ >= c + tau - 1 and N.e(mu_) == 0:
        closed = (j - mu_) * tau - (d - 1)
        if value != closed:
            raise RuntimeError(
                f"codimension routes disagree: ell(A)={value}, closed={closed}"
            )
    return value
