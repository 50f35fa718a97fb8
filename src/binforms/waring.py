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
codimension of the locus where mu drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import PreconditionError
from .fields import FieldSpec
from .forms import (
    BinaryForm,
    format_form,
    linear_factors,
    linear_power,
    monic,
    monomial,
    mul_form,
    add_form,
    require_pairing_char,
    zero_form,
)
from .hilbert import dual_partition, ell, is_permissible_nose
from .ideals import GradedIdeal, graded_ideal, unit_form
from .linalg import Matrix, kernel
from .osequence import OSequence, oseq
from .spaces import (
    FormSpace,
    full_space,
    random_space,
    span,
    space_from_json,
    space_to_json,
)

DUAL_VARS = ("X", "Y")


# ── dual spaces ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class DualSpace:
    """A subspace of the degree-j dual forms in X, Y (canonical RREF basis)."""

    space: FormSpace

    def __post_init__(self):
        require_pairing_char(self.space.field, self.space.degree)

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

    def contains(self, w: BinaryForm) -> bool:
        return self.space.contains(w)

    def __str__(self) -> str:
        if self.dim == 0:
            return "<0>"
        return "<" + ", ".join(
            format_form(w, vars=DUAL_VARS) for w in self.basis_forms()
        ) + ">"


def dual_space(field: FieldSpec, degree: int, forms) -> DualSpace:
    return DualSpace(span(field, degree, forms))


def random_dual(c: int, j: int, field: FieldSpec, seed) -> DualSpace:
    """Deterministic c-dimensional sample of degree-j dual forms."""
    return DualSpace(random_space(c, j, field, seed))


def dual_to_json(W: DualSpace) -> dict:
    return space_to_json(W.space)


def dual_from_json(obj: dict, field: FieldSpec | None = None) -> DualSpace:
    return DualSpace(space_from_json(obj, field))


# ── the contraction pairing: perp and annihilator ─────────────────────────────


def _weighted_rows(S: FormSpace) -> tuple[tuple, ...]:
    """S's basis rows with entry a scaled by the pairing weight (j-a)! a!.

    In coefficient coordinates the degree-j contraction pairing is diagonal
    with these weights, so this is the one place they are applied.
    """
    F, j = S.field, S.degree
    weights = [F.coerce(factorial(j - a) * factorial(a)) for a in range(j + 1)]
    return tuple(tuple(F.mul(c, wt) for c, wt in zip(r, weights)) for r in S.mat.rows)


def perp(V: FormSpace) -> DualSpace:
    """V^perp, the dual forms killed by every element of V.

    The kernel of V's basis matrix with weighted columns; dim V^perp =
    j+1 - dim V.
    """
    F, j = V.field, V.degree
    require_pairing_char(F, j)
    return DualSpace(FormSpace(F, j, kernel(Matrix(F, _weighted_rows(V), j + 1))))


def _ann_component(W: DualSpace, i: int) -> FormSpace:
    """(Ann W)_i = {f in R_i : f . w = 0 for all w in W}, from catalecticants.

    With weighted coefficients w'_a = (j-a)! a! w_a, the Y^r coefficient of
    f . w is sum_k f_k w'_{k+r} / ((j-i-r)! r!), and those divisors are
    invertible.  So (Ann W)_i is the kernel of the stacked Hankel blocks
    [w'_{k+r}] (rows r = 0..j-i, columns k = 0..i), one per basis element w.
    """
    F, j = W.field, W.degree
    if i > j:
        return full_space(F, i)
    rows = tuple(
        w[r : r + i + 1] for w in _weighted_rows(W.space) for r in range(j - i + 1)
    )
    return FormSpace(F, i, kernel(Matrix(F, rows, i + 1)))


def annihilator(W: DualSpace) -> GradedIdeal:
    """The ideal of forms contracting W to zero; equals the level ideal
    of V = (Ann W)_j, so annihilator(perp(V)) == level_ideal(V)."""
    F, j = W.field, W.degree
    comps = [_ann_component(W, i) for i in range(j + 1)]
    comps.append(full_space(F, j + 1))
    return graded_ideal(F, 0, comps, unit_form(F))


def tau_delta(W: DualSpace) -> int:
    """1 + dim R_1.W - dim W; equals tau((Ann W)_j).

    Under the perfect degree-(j-1) pairing R_1.W and (Ann W)_{j-1} are
    each other's orthogonal complements (f kills x.w and y.w iff f.w = 0),
    so dim R_1.W = j - dim (Ann W)_{j-1}.
    """
    j = W.degree
    if W.dim == 0:
        return 1
    if j == 0:
        return 1 - W.dim  # W = dual_0 itself; annihilator starts in degree 0
    return 1 + j - _ann_component(W, j - 1).dim - W.dim


def _initial_component(W: DualSpace) -> tuple[int, FormSpace]:
    """mu(W) and (Ann W)_mu, by bisection on [c, j+1], c = dim W.

    No degree below c qualifies: a nonzero f in (Ann W)_i puts f.R_{j-i} in
    (Ann W)_j, so j-i+1 <= j+1-c.  Ann W is an ideal, so (Ann W)_i != 0
    implies (Ann W)_{i+1} != 0, and (Ann W)_{j+1} is all of R_{j+1}.
    """
    lo, hi = W.dim, W.degree + 1
    comp = full_space(W.field, hi)
    while lo < hi:
        mid = (lo + hi) // 2
        cand = _ann_component(W, mid)
        if cand.dim:
            hi, comp = mid, cand
        else:
            lo = mid + 1
    return hi, comp


def mu(W: DualSpace) -> int:
    """Initial degree of the annihilator; c <= mu(W) <= mu_generic(tau_delta).

    Found by bisection between c and j+1 (j+1 when W is the full dual space).
    """
    return _initial_component(W)[0]


# ── generalized additive decompositions ───────────────────────────────────────


@dataclass(frozen=True)
class GAD:
    """W inside span{X^s Y^t L_i^{j+1-beta_i} : s+t = beta_i - 1}.

    linear_forms are pairwise independent degree-1 dual forms; length is
    mu = sum of the weights.  cofactors[k][i] is the degree beta_i - 1
    multiplier of L_i^{j+1-beta_i} for the k-th basis element of W.
    """

    linear_forms: tuple[BinaryForm, ...]
    weights: tuple[int, ...]
    cofactors: tuple[tuple[BinaryForm, ...], ...]

    def __post_init__(self):
        if len(self.linear_forms) != len(self.weights):
            raise PreconditionError("one weight per linear form")
        if any(b < 1 for b in self.weights):
            raise PreconditionError("weights must be at least 1")
        for u in range(len(self.linear_forms)):
            for v in range(u + 1, len(self.linear_forms)):
                a0, a1 = self.linear_forms[u].coeffs
                b0, b1 = self.linear_forms[v].coeffs
                F = self.linear_forms[u].field
                if F.is_zero(F.sub(F.mul(a0, b1), F.mul(a1, b0))):
                    raise PreconditionError("linear forms must be independent")

    @property
    def length(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class Unsplit:
    """A minimal-degree apolar form whose rootless part blocks splitting
    over the base field; a decomposition would need a field extension."""

    form: BinaryForm


def _dual_of_linear(l: BinaryForm) -> BinaryForm:
    # l = c0 x + c1 y kills L = c1 X - c0 Y under contraction
    F = l.field
    c0, c1 = l.coeffs
    return monic(BinaryForm(F, 1, (c1, F.neg(c0))))


def _solve_coords(F: FieldSpec, vectors, target):
    """Coordinates of target in a list of independent vectors, or None."""
    n = len(vectors)
    eqs = tuple(
        tuple(v[r] for v in vectors) + (F.neg(target[r]),)
        for r in range(len(target))
    )
    for z in kernel(Matrix(F, eqs, n + 1)).rows:
        if not F.is_zero(z[-1]):
            s = F.inv(z[-1])
            return [F.mul(s, z[k]) for k in range(n)]
    return None


def gad(W: DualSpace) -> GAD | Unsplit:
    """Decompose W through powers of linear dual forms.

    Takes a minimal-degree element f of the annihilator (lex-smallest
    basis coordinates first, every basis element tried before giving up),
    extracts its roots over the base field, and on full splitting returns
    the GAD with L_i dual to the linear factors and weights equal to the
    multiplicities, together with per-basis-element cofactors.  If no
    candidate splits, returns Unsplit with the rootless part of the
    lex-first candidate.
    """
    F, j = W.field, W.degree
    m, comp = _initial_component(W)
    candidates = sorted(comp.mat.rows)
    first_rem = None
    for row in candidates:
        f = BinaryForm(F, m, row)
        factors, rem = linear_factors(f)
        if first_rem is None:
            first_rem = rem
        if rem.degree > 0:
            continue
        linear_forms = tuple(_dual_of_linear(l) for l, _ in factors)
        weights = tuple(b for _, b in factors)
        if sum(weights) != m:
            raise RuntimeError("factor multiplicities do not add up to mu")
        gens, slots = [], []
        powers = [linear_power(L, j + 1 - b) for L, b in zip(linear_forms, weights)]
        for idx, b in enumerate(weights):
            for t in range(b):
                gens.append(mul_form(monomial(F, b - 1 - t, t), powers[idx]))
                slots.append((idx, t))
        cert = span(F, j, gens)
        if cert.dim != m:
            raise RuntimeError("apolar power span has the wrong dimension")
        cofactors = []
        for w in W.basis_forms():
            if not cert.contains(w):
                raise RuntimeError("dual space escapes its apolar power span")
            coords = _solve_coords(F, [g.coeffs for g in gens], w.coeffs)
            if coords is None:
                raise RuntimeError("membership without coordinates")
            per_factor = []
            for idx, b in enumerate(weights):
                cs = [F.zero] * b
                for pos, (k, t) in enumerate(slots):
                    if k == idx:
                        cs[t] = coords[pos]
                per_factor.append(BinaryForm(F, b - 1, tuple(cs)))
            # reconstruct to be safe: w = sum G_i L_i^{j+1-beta_i}
            acc = zero_form(F, j)
            for G, P in zip(per_factor, powers):
                acc = add_form(acc, mul_form(G, P))
            if acc != w:
                raise RuntimeError("cofactor reconstruction mismatch")
            cofactors.append(tuple(per_factor))
        return GAD(linear_forms, weights, tuple(cofactors))
    return Unsplit(first_rem)


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
    order = N.order()
    if (order if order is not None else j + 1) != mu_:
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
    P = tuple(N.e(i) + 1 for i in range(j, mu_ - 1, -1))
    A = dual_partition(P)
    value = ell(A)
    if mu_ >= c + tau - 1 and N.e(mu_) == 0:
        closed = (j - mu_) * tau - (d - 1)
        if value != closed:
            raise RuntimeError(
                f"codimension routes disagree: ell(A)={value}, closed={closed}"
            )
    return value
