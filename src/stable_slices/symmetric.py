"""Symmetric polynomials in the elementary-symmetric basis.

Everything here evaluates through the e-vector: a symmetric polynomial is
stored as a sparse polynomial g with f(X) = g(e_1(X), ..., e_n(X)).  On
top of that sit the Grace-Walsh-Szego solver (collapse a multiaffine
symmetric polynomial to a diagonal point), the coincidence reduction for
forms factoring through few linear functionals of the e_i, a Young-block
version of the solver, the variety multistart search used by the
double-degree principle, and the half-degree objective optimizer.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DimensionMismatch, NonConvergence, NoRootInRegion
from .polynomials import (
    BOUNDARY_SCALE,
    Poly,
    cluster_roots,
    find_roots,
    vieta_from_roots,
    vieta_rows,
)
from .regions import HalfPlane
from .slices import Slice, compactness_bounds, compress

GWS_RESIDUAL_SCALE = 1e-8
_SEARCH_STREAM = 11
_UNBOUNDED_FLOOR = -1e12
# Gauss-Newton steps per variety_search start, descent steps per
# halfdeg_optimize start
_NEWTON_ITERATIONS = 60
# a Gauss-Newton step that lowers a start's norm by less than this
# relative amount ends the start
_STAGNATION = 1e-6
_DESCENT_ITERATIONS = 300


def _canonical_terms(terms, width: int):
    canon = {}
    for key, coeff in (terms.items() if hasattr(terms, "items") else terms):
        exps = tuple(int(e) for e in key)
        if len(exps) > width:
            if any(exps[width:]):
                raise DimensionMismatch("exponent tuple longer than variable count")
            exps = exps[:width]
        exps = exps + (0,) * (width - len(exps))
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        coeff = complex(coeff)
        if coeff != 0:
            canon[exps] = canon.get(exps, 0.0 + 0.0j) + coeff
    return tuple(sorted((k, v) for k, v in canon.items() if v != 0))


def _eval_terms(terms, w, absolute: bool = False):
    """Sum of coeff * prod w_i^p over sparse ((p_1, ..., p_k), coeff) terms.

    With absolute=True every coefficient and every w_i enters by its
    modulus, giving the scale the value's rounding error is judged against.
    """
    if absolute:
        w = np.abs(w)
    total = 0.0
    for exps, coeff in terms:
        term = abs(coeff) if absolute else coeff
        for i, p in enumerate(exps):
            if p:
                term *= w[i] ** p
        total += term
    return total


@dataclasses.dataclass(frozen=True)
class SymmetricPoly:
    """Sparse polynomial g in Z_1..Z_n representing f = g(e_1, ..., e_n).

    ``degree`` is the declared total degree of f in the underlying X
    variables; validation rejects terms using Z_i with i > degree or with
    weighted degree sum(i * exponent_i) above it.
    """

    n: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]
    degree: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        if not 0 <= self.degree <= self.n:
            raise ValueError("declared degree must lie in [0, n]")
        for exps, _ in self.terms:
            weighted = sum((i + 1) * e for i, e in enumerate(exps))
            if weighted > self.degree:
                raise ValueError(
                    f"term {exps} has weighted degree {weighted} > declared {self.degree}")

    @classmethod
    def from_terms(cls, n: int, terms, degree: int) -> "SymmetricPoly":
        return cls(n=n, terms=_canonical_terms(terms, n), degree=degree)

    @property
    def is_multiaffine(self) -> bool:
        return all(sum(exps) <= 1 for exps, _ in self.terms)

    def affine_coefficients(self) -> np.ndarray:
        """(c_0, c_1, ..., c_n) for f = c_0 + sum c_i e_i; requires multiaffine."""
        if not self.is_multiaffine:
            raise ValueError("polynomial is not affine-linear in the e basis")
        c = np.zeros(self.n + 1, dtype=complex)
        for exps, coeff in self.terms:
            if sum(exps) == 0:
                c[0] += coeff
            else:
                c[exps.index(1) + 1] += coeff
        return c

    def eval_at_e(self, e) -> complex:
        return complex(_eval_terms(self.terms, np.asarray(e, dtype=complex)))

    def abs_eval_at_e(self, e) -> float:
        return float(_eval_terms(self.terms, np.asarray(e, dtype=complex), absolute=True))


@dataclasses.dataclass(frozen=True)
class _TermTable:
    """A list of SymmetricPolys on the same variables, compiled for batches.

    ``exponents`` holds the union of the lists' monomials row-wise (T x n),
    ``coefficients`` the coefficient of each monomial in each polynomial
    (T x P).  ``lowered`` and ``weights`` (n + 1 slabs) give the monomials
    and their derivatives: slab 0 holds the exponents with weight 1, slab
    i + 1 the exponents with that of e_{i+1} lowered by one, weighted by
    the exponent it had.  ``deflate`` ((n + 1) x n) is 1 but for a 0 at
    (l + 1, l).
    """

    exponents: np.ndarray
    coefficients: np.ndarray
    lowered: np.ndarray
    weights: np.ndarray
    deflate: np.ndarray

    @classmethod
    def compile(cls, polys) -> "_TermTable":
        index: dict[tuple[int, ...], int] = {}
        for f in polys:
            for exps, _ in f.terms:
                index.setdefault(exps, len(index))
        coefficients = np.zeros((len(index), len(polys)), dtype=complex)
        for j, f in enumerate(polys):
            for exps, coeff in f.terms:
                coefficients[index[exps], j] += coeff
        n = polys[0].n
        exponents = np.asarray(list(index), dtype=int).reshape(len(index), n)
        lowered = np.maximum(exponents - np.eye(n, dtype=int)[:, None, :], 0)
        return cls(exponents=exponents, coefficients=coefficients,
                   lowered=np.concatenate([exponents[None], lowered]),
                   weights=np.vstack([np.ones(len(index)), exponents.T]),
                   deflate=1.0 - np.eye(n + 1, n, -1))

    def at_points(self, x: np.ndarray) -> np.ndarray:
        """Values (..., P) of every polynomial at the points x (..., n).

        The monomials of a (starts, rows, n) stack are formed as one
        (starts * rows, n) batch, which NumPy lays out as it would a
        (rows, n) batch, and multiplied by the coefficients one start at a
        time, so each start's values round exactly as a batch of its own
        would: the layout sets the order, and so the rounding, of the
        product over the e_i and of the matrix product.  A one-row batch is
        the exception, laid out row-major, so one-row starts are made
        row-major too.
        """
        e = vieta_rows(x.reshape(-1, x.shape[-1]))
        if x.shape[-2:-1] == (1,):
            e = np.ascontiguousarray(e)
        monomials = np.prod(e[:, None, :] ** self.exponents, axis=2)
        return monomials.reshape(x.shape[:-1] + monomials.shape[-1:]) @ self.coefficients

    def with_derivatives(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (B, P) and derivatives df/dx (B, n, P) at the points x (B, n).

        de_k/dx_l = e_{k-1}(x without x_l), and e_k(x without x_l) is e_k of
        x with x_l set to 0; one expansion of the (B, n + 1, n) stack of x and
        its n deflated copies gives both.  Every start's rows are laid out
        alike whatever B is, so a start rounds in a batch as it does alone.
        """
        batch, n = x.shape
        deflated = (x[:, None, :] * self.deflate).reshape(-1, n)
        e = np.ascontiguousarray(vieta_rows(deflated)).reshape(batch, n + 1, n)
        monomials = np.prod(e[:, :1, None, :] ** self.lowered, axis=3) * self.weights
        # values, then df/de_k
        g = monomials @ self.coefficients
        return g[:, 0], g[:, 1:2] + e[:, 1:, :-1] @ g[:, 2:]


@dataclasses.dataclass(frozen=True)
class SufficientForm:
    """Symmetric polynomial factored as gk(l_1(e), ..., l_k(e)).

    ``matrix`` holds the linear forms row-wise (k x n); ``gk`` is a sparse
    polynomial in the k intermediate variables.
    """

    matrix: tuple[tuple[complex, ...], ...]
    gk: tuple[tuple[tuple[int, ...], complex], ...]

    @classmethod
    def from_data(cls, matrix, gk_terms) -> "SufficientForm":
        m = np.atleast_2d(np.asarray(matrix, dtype=complex))
        rows = tuple(tuple(complex(v) for v in row) for row in m)
        return cls(matrix=rows, gk=_canonical_terms(gk_terms, len(rows)))

    @property
    def n(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def eval_at_e(self, e) -> complex:
        return complex(_eval_terms(self.gk, self._forms(e)))

    def _forms(self, e) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex) @ np.asarray(e, dtype=complex)


@dataclasses.dataclass(frozen=True)
class CoordinateProfile:
    """Distinct-boundary / interior counts of a coordinate tuple."""

    boundary_distinct: int
    interior_count: int
    outside_count: int = 0

    def within(self, k: int, m: int) -> bool:
        return self.outside_count == 0 and self.boundary_distinct <= k \
            and self.interior_count <= m


def elementary_symmetrics(x) -> tuple[complex, ...]:
    return vieta_from_roots(tuple(x)).z


def eval_symmetric(f, x) -> complex:
    xs = tuple(x)
    if isinstance(f, (SymmetricPoly, SufficientForm)) and len(xs) != f.n:
        raise DimensionMismatch(f"expected {f.n} coordinates, got {len(xs)}")
    return f.eval_at_e(elementary_symmetrics(xs))


def coordinate_profile(x, halfplane: HalfPlane | None = None) -> CoordinateProfile:
    H = halfplane if halfplane is not None else HalfPlane.upper()
    profile = cluster_roots(tuple(x), H)
    return CoordinateProfile(boundary_distinct=profile.boundary_distinct,
                             interior_count=profile.interior_total,
                             outside_count=profile.outside_total)


def _ldexp(v: complex, k: int) -> complex:
    """v * 2^k, exact unless a part leaves the float range."""
    return complex(math.ldexp(v.real, k), math.ldexp(v.imag, k))


def _gws_core(coeffs, x, halfplane: HalfPlane) -> complex:
    """Solve c_0 + sum c_d e_d(y*1) = c_0 + sum c_d e_d(x) for y in the half-plane."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.size - 1
    e = vieta_from_roots(x).z
    target = c[0] + sum(c[d] * e[d - 1] for d in range(1, n + 1))
    # u(Y) = c_0 + sum c_d C(n, d) Y^d - target
    u = np.zeros(n + 1, dtype=complex)
    u[0] = c[0] - target
    for d in range(1, n + 1):
        u[d] = c[d] * math.comb(n, d)
    deg = n
    # u[0] holds the target, whose size says nothing of the leading terms
    while deg > 0 and abs(u[deg]) <= 1e-14 * float(np.max(np.abs(u[1:]))):
        deg -= 1
    if deg == 0:
        # constant problem: any point works, x_1 is the deterministic pick
        return complex(x[0])
    raw = (u[:deg + 1] / u[deg])[::-1].tolist()
    # Solved for Z = Y / 2^k, with 2^k near the root bound max_i |a_i|^(1/i):
    # the constant term, about |x|^n, would set find_roots' start circle
    # far outside roots of modulus |x|, where the iterates overflow
    bound = max(abs(a) ** (1.0 / i) for i, a in enumerate(raw[1:], 1))
    k = round(math.log2(bound)) if 0.0 < bound < math.inf else 0
    zs = find_roots(Poly.from_raw([_ldexp(a, -k * i) for i, a in enumerate(raw)]))
    roots = [_ldexp(z, k) for z in zs]
    scale = 1.0 + max(abs(r) for r in roots)
    btol = BOUNDARY_SCALE * scale
    inside = [r for r in roots if halfplane.signed_distance(r) >= -btol]
    if not inside:
        worst = min(abs(halfplane.signed_distance(r)) for r in roots)
        raise NoRootInRegion(
            f"no admissible root for the diagonal equation (closest margin {worst:.3e})")
    # moduli and real parts compared on a grid, as in _sorted_point: roots
    # of equal modulus, such as the cube roots of Y^3 = w, differ in abs by
    # rounding, and that noise must not preempt the (Re, Im) tie-break
    grid = BOUNDARY_SCALE * scale
    y = min(inside, key=lambda r: (np.rint(abs(r) / grid), np.rint(r.real / grid), r.imag))
    return complex(y)


def gws_solve(f: SymmetricPoly, x, halfplane: HalfPlane | None = None) -> complex:
    """Diagonal point y with f(y, ..., y) = f(x), y inside the half-plane.

    ``young_gws`` on one block: f must be affine-linear in the e basis
    (multiaffine symmetric), and the admissible root of smallest modulus is
    returned, ties broken by lexicographic (Re, Im); moduli and real parts
    tie when they agree on a grid of BOUNDARY_SCALE (1 + max |root|).
    """
    return young_gws((f.n,), f, x, halfplane)[0]


def coincide(form: SufficientForm, x, halfplane: HalfPlane | None = None, *,
             seed: int = 0):
    """Value-preserving reduction to a point with few distinct coordinates.

    Compresses e(x) inside the slice {l_j(z) = l_j(e(x))}; since the form
    only reads the l_j, the value survives, while the compressed root
    multiset has few interior and few distinct boundary coordinates.
    seed draws the descent's functional as in ``compress``.  Returns
    (x_tilde, CompressionReport); x_tilde is read from the report's final
    profile, sorted by (Re, Im), so it is the multiset the descent ended at
    and not a re-found one.
    """
    H = halfplane if halfplane is not None else HalfPlane.upper()
    xs = tuple(x)
    if len(xs) != form.n:
        raise DimensionMismatch(f"expected {form.n} coordinates, got {len(xs)}")
    e = np.asarray(elementary_symmetrics(xs), dtype=complex)
    A = np.asarray(form.matrix, dtype=complex)
    S = Slice.from_arrays(A, A @ e)
    report = compress(Poly(tuple(e)), S, H, seed=seed)
    members = (x for cl in report.final_profile.clusters for x in cl.members)
    return tuple(sorted(members, key=lambda v: (v.real, v.imag))), report


def young_blocks_from_x_expansion(blocks, monomials) -> dict:
    """Convert a multiaffine X-expansion to per-block e-basis coefficients.

    ``monomials`` maps 0/1 tuples (length n) to coefficients.  Invariance
    under the product of block symmetric groups is validated: monomials
    with the same per-block weight must share a coefficient, and a missing
    monomial has coefficient 0, so a weight with a nonzero coefficient
    must list all prod_j C(b_j, w_j) of its monomials.
    """
    n = sum(blocks)
    offsets = np.cumsum((0,) + tuple(blocks))
    out: dict[tuple[int, ...], complex] = {}
    masks: dict[tuple[int, ...], set] = {}
    for key, coeff in (monomials.items() if hasattr(monomials, "items") else monomials):
        mask = tuple(int(v) for v in key)
        if len(mask) != n or any(v not in (0, 1) for v in mask):
            raise DimensionMismatch("X-expansion keys must be 0/1 tuples of length n")
        weight = tuple(sum(mask[offsets[j]:offsets[j + 1]]) for j in range(len(blocks)))
        coeff = complex(coeff)
        if weight in out:
            if abs(out[weight] - coeff) > 1e-10 * (1.0 + abs(coeff)):
                raise ValueError(f"expansion not block-invariant at weight {weight}")
        else:
            out[weight] = coeff
        masks.setdefault(weight, set()).add(mask)
    for weight, coeff in out.items():
        count = math.prod(math.comb(b, w) for b, w in zip(blocks, weight))
        if len(masks[weight]) < count and abs(coeff) > 1e-10 * (1.0 + abs(coeff)):
            raise ValueError(f"expansion not block-invariant at weight {weight}: "
                             f"{len(masks[weight])} of its {count} monomials given")
    return out


def young_gws(blocks, f, x, halfplane: HalfPlane | None = None) -> tuple[complex, ...]:
    """Per-block diagonal point (y_1, ..., y_kappa) preserving a block-invariant value.

    ``f`` is a multiaffine SymmetricPoly on sum(blocks) variables, or per-block
    e-basis coefficients keyed by (d_1, ..., d_kappa), one entry per block,
    as a dict or an iterable of pairs; the all-zero key is the constant.
    Convert an X-expansion keyed by 0/1 tuples with
    ``young_blocks_from_x_expansion`` first.  Solved block by block: later
    blocks stay frozen at their x coordinates, earlier blocks at the
    already-found diagonal values; each block takes the admissible root of
    smallest modulus, ties broken by lexicographic (Re, Im) as in
    ``gws_solve``.
    """
    H = halfplane if halfplane is not None else HalfPlane.upper()
    sizes = tuple(int(b) for b in blocks)
    if any(b < 1 for b in sizes):
        raise ValueError("block sizes must be positive")
    n = sum(sizes)
    xs = tuple(x)
    if len(xs) != n:
        raise DimensionMismatch(f"expected {n} coordinates, got {len(xs)}")
    if isinstance(f, SymmetricPoly):
        if f.n != n:
            raise DimensionMismatch(f"the blocks hold {n} coordinates, f has n = {f.n}")
        # e_m of the full variable set splits as a convolution over blocks,
        # so an affine f = sum c_m e_m has block coefficient c_{d_1+...+d_k}.
        c = f.affine_coefficients()
        f = {w: c[sum(w)] for w in np.ndindex(*[b + 1 for b in sizes]) if c[sum(w)] != 0}
    terms = {}
    for key, coeff in (f.items() if hasattr(f, "items") else f):
        weight = tuple(int(v) for v in key)
        if len(weight) != len(sizes):
            raise DimensionMismatch("block coefficient keys must have one entry per block")
        if any(not 0 <= w <= sizes[j] for j, w in enumerate(weight)):
            raise ValueError(f"block weight {weight} exceeds block sizes")
        terms[weight] = terms.get(weight, 0.0 + 0.0j) + complex(coeff)

    offsets = np.cumsum((0,) + sizes)
    blocks_x = [xs[offsets[j]:offsets[j + 1]] for j in range(len(sizes))]
    # e_d tables per block, refreshed as blocks collapse to diagonal values
    etab = [[1.0 + 0.0j] + list(vieta_from_roots(bx).z) for bx in blocks_x]

    def value() -> tuple[complex, float]:
        """f at the tables, and the sum of its terms' moduli."""
        val, size = 0.0 + 0.0j, 0.0
        for weight, coeff in terms.items():
            term = coeff
            for j, w in enumerate(weight):
                term *= etab[j][w]
            val += term
            size += abs(term)
        return val, size

    reference, size = value()
    ys = []
    for j, bx in enumerate(blocks_x):
        coeffs = np.zeros(sizes[j] + 1, dtype=complex)
        for weight, coeff in terms.items():
            outer = coeff
            for l, w in enumerate(weight):
                if l != j:
                    outer *= etab[l][w]
            coeffs[weight[j]] += outer
        y = _gws_core(coeffs, bx, H)
        ys.append(y)
        etab[j] = [1.0 + 0.0j] + [math.comb(sizes[j], d) * y ** d
                                  for d in range(1, sizes[j] + 1)]
    final, final_size = value()
    # terms far larger than their sum cancel, and their rounding, not the
    # value, sets how far an exact solve can drift
    if abs(final - reference) > 1e-6 * (1.0 + size + final_size):
        raise NoRootInRegion(
            f"block recursion drifted: |delta| = {abs(final - reference):.3e}")
    return tuple(ys)


# ---------------------------------------------------------------------------
# pattern machinery shared by the variety search and the half-degree optimizer


@dataclasses.dataclass(frozen=True)
class _Pattern:
    multiplicities: tuple[int, ...]
    interior: int
    boundary_real: bool

    @property
    def params(self) -> int:
        return len(self.multiplicities) * (1 if self.boundary_real else 2) \
            + 2 * self.interior

    def describe(self) -> str:
        kind = "boundary" if self.boundary_real else "value"
        return f"{kind} multiplicities {self.multiplicities}, interior {self.interior}"

    def affine_map(self, halfplane: HalfPlane) -> "_PatternMap":
        """The pattern's points as an affine image of its parameters.

        Each distinct value takes one parameter (its coordinate on the
        boundary line) or two (real and imaginary part in the upper chart);
        the values fill x in order, multiplicities first, then interior.
        """
        rot = np.exp(1j * halfplane.theta)
        widths = self.multiplicities + (1,) * self.interior
        matrix = np.zeros((self.params, sum(widths)), dtype=complex)
        clamped = np.zeros(self.params, dtype=bool)
        row = col = 0
        for k, width in enumerate(widths):
            matrix[row, col:col + width] = rot
            if k >= len(self.multiplicities) or not self.boundary_real:
                matrix[row + 1, col:col + width] = 1j * rot
                clamped[row + 1] = True
                row += 1
            row += 1
            col += width
        return _PatternMap(base=halfplane.base, matrix=matrix, clamped=clamped)


@dataclasses.dataclass(frozen=True)
class _PatternMap:
    """x = base + theta @ matrix, with theta >= 0 where ``clamped``.

    ``clamped`` marks the parameters that are imaginary parts in the upper
    chart.  One pattern's map has a (params, n) matrix and a (params,) mask;
    a stacked map (``stack``) has a (width, n) matrix and a (1, width) mask
    per start, and reads (starts, rows, width) stacks of parameters.
    """

    base: complex
    matrix: np.ndarray
    clamped: np.ndarray

    @classmethod
    def stack(cls, maps, starts: int) -> "_PatternMap":
        """``starts`` starts of each map in turn, their parameters padded
        with zeros to the widest map's."""
        width = max(m.matrix.shape[0] for m in maps)
        matrix = np.zeros((len(maps), width, maps[0].matrix.shape[1]), dtype=complex)
        clamped = np.zeros((len(maps), 1, width), dtype=bool)
        for i, m in enumerate(maps):
            matrix[i, :m.matrix.shape[0]] = m.matrix
            clamped[i, 0, :m.clamped.size] = m.clamped
        return cls(base=maps[0].base, matrix=matrix.repeat(starts, axis=0),
                   clamped=clamped.repeat(starts, axis=0))

    def take(self, rows) -> "_PatternMap":
        """The map of the starts ``rows`` of a stacked map; one pattern's
        map serves every start."""
        if self.matrix.ndim == 2:
            return self
        return _PatternMap(base=self.base, matrix=self.matrix[rows], clamped=self.clamped[rows])

    def points(self, theta: np.ndarray) -> np.ndarray:
        """Points for one parameter vector, a batch or a stack of batches of them."""
        return self.base + theta @ self.matrix

    def project(self, theta: np.ndarray) -> np.ndarray:
        """Clamp the imaginary parts at 0, so the values stay in the closed half-plane."""
        return np.where(self.clamped, np.maximum(theta, 0.0), theta)

    def derivatives(self, table: _TermTable, theta: np.ndarray):
        """Values (B, P) of the table's polynomials at the parameters theta
        (B, params) and their derivatives df/dtheta = matrix @ df/dx (B,
        params, P); a start rounds in a batch as it does alone."""
        values, dfdx = table.with_derivatives(self.points(theta[:, None])[:, 0])
        return values, self.matrix @ dfdx


def _partitions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(total - parts + 1, 0, -1):
        for rest in _partitions(total - first, parts - 1):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _budget_patterns(n: int, budget: int):
    for r in range(1, min(budget, n) + 1):
        for part in _partitions(n, r):
            yield _Pattern(multiplicities=part, interior=0, boundary_real=False)


def _km_patterns(n: int, k_boundary: int, m_interior: int):
    out = []
    for t in range(0, min(m_interior, n) + 1):
        rest = n - t
        if rest == 0:
            out.append(_Pattern(multiplicities=(), interior=t, boundary_real=True))
            continue
        for r in range(1, min(k_boundary, rest) + 1):
            for part in _partitions(rest, r):
                out.append(_Pattern(multiplicities=part, interior=t, boundary_real=True))
    out.sort(key=lambda p: (len(p.multiplicities) + p.interior, p.interior,
                            tuple(-m for m in p.multiplicities)))
    return out


def _start_thetas(pmap: _PatternMap, box, stream, starts) -> np.ndarray:
    """Random parameters in box, one row per start index s, drawn from
    ``default_rng([*stream, s])``: imaginary parts from (0, im_hi), the
    others from (re_lo, re_hi), in parameter order.  low + width * random
    is Generator.uniform's own formula, so a row is the draws of one
    uniform call per parameter."""
    re_lo, re_hi, im_hi = box
    low = np.where(pmap.clamped, 0.0, re_lo)
    width = np.where(pmap.clamped, im_hi, re_hi - re_lo)
    # the words handed over as an array skip NumPy's conversion of the list
    key = _seed_words(stream)
    rows = [low + width * np.random.default_rng(np.random.SeedSequence(
        np.array(key + _seed_words([s]), dtype=np.uint32))).random(low.size) for s in starts]
    return np.asarray(rows, dtype=float).reshape(-1, low.size)


def _seed_words(values) -> list[int]:
    """The 32-bit words, least significant first, into which NumPy's
    SeedSequence turns a list of non-negative integers; 0 is one word."""
    words = []
    for v in map(int, values):
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return words


@dataclasses.dataclass(frozen=True)
class FoundPoint:
    x: tuple[complex, ...]
    residuals: tuple[float, ...]
    pattern: str
    starts_used: int


@dataclasses.dataclass(frozen=True)
class NoneFound:
    patterns_tried: int
    starts: int
    best_residual: float
    best_x: tuple[complex, ...] | None
    note: str = "numeric multistart search; finding nothing certifies nothing"


def _detect_pinned(polys) -> dict[int, complex]:
    """{i: v} for each polynomial of the form c_0 + c e_{i+1}, which pins
    e_{i+1} = v = -c_0 / c."""
    pinned: dict[int, complex] = {}
    for f in polys:
        if not f.is_multiaffine:
            continue
        c = f.affine_coefficients()
        (linear,) = np.nonzero(c[1:])
        if linear.size == 1:
            i = int(linear[0])
            pinned[i] = -complex(c[0]) / complex(c[i + 1])
    return pinned


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v, rounded as np.linalg.norm rounds one
    row alone: each row is its own dot product."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


class _Lockstep:
    """The live starts of a lockstep batch: the index, group end, parameters,
    score and map (``_PatternMap.take``) of each, in start order.

    The starts form consecutive groups, the last start of each group one
    below its entry of ``ends``.  ``finish(start, theta, score)`` is called
    once for each start as it ends; returning True ends, unfinished, every
    start of higher index in its group.
    """

    def __init__(self, pmap: _PatternMap, theta: np.ndarray, score: np.ndarray, finish,
                 ends) -> None:
        self.start = np.arange(theta.shape[0])
        self.end = np.repeat(ends, np.diff(ends, prepend=0))
        self.pmap = pmap
        self.theta = theta
        self.score = score
        self.finish = finish

    def keep(self, mask: np.ndarray, *arrays: np.ndarray):
        """End the live starts where mask is False, in start order, and
        return ``arrays`` (rows per live start) cut to the starts left."""
        if mask.all():
            return arrays
        cut = 0
        for r in np.flatnonzero(~mask):
            start = int(self.start[r])
            # a start cut earlier in this call ends unfinished
            if start >= cut and self.finish(start, self.theta[r], float(self.score[r])):
                cut = int(self.end[r])
                mask = mask & ((self.start < start) | (self.start >= cut))
        self.start, self.end = self.start[mask], self.end[mask]
        self.theta, self.score = self.theta[mask], self.score[mask]
        self.pmap = self.pmap.take(mask)
        return tuple(a[mask] for a in arrays)


def _real_parts(values: np.ndarray) -> np.ndarray:
    """Complex (..., P) as real (..., 2P): real parts, then imaginary parts."""
    return np.concatenate([values.real, values.imag], axis=-1)


def _min_norm_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of J delta = -F for every start
    of a stack, J (B, m, k) and F (B, m), with gelsd's cutoff: singular
    values at or below eps max(m, k) sigma_max count as zero."""
    u, s, vt = np.linalg.svd(J, full_matrices=False)
    inverse = np.divide(-1.0, s, out=np.zeros_like(s),
                        where=s > np.finfo(float).eps * max(J.shape[1:]) * s[:, :1])
    return (((F[:, None, :] @ u) * inverse[:, None, :]) @ vt)[:, 0]


def _newton_system(table: _TermTable, pmap: _PatternMap, theta: np.ndarray):
    """Residuals F (B, 2P) of the real and imaginary parts of the table's
    polynomials at the parameters theta (B, params), their norms, and their
    exact Jacobians J (B, 2P, params) from ``_PatternMap.derivatives``."""
    values, dfdtheta = pmap.derivatives(table, theta)
    F = _real_parts(values)
    return F, _row_norms(F), _real_parts(dfdtheta).transpose(0, 2, 1)


# A start in a box too wide for the float range overflows its expansions;
# the iterations end such a start, and verify refuses its point, so NumPy's
# warnings would only print to stderr
@np.errstate(over="ignore", invalid="ignore")
def _gauss_newton(table: _TermTable, pmap: _PatternMap, theta: np.ndarray, finish) -> None:
    """Damped Gauss-Newton on the real and imaginary parts of the table's
    polynomials from every row of theta (starts x params), in lockstep.

    Each iteration advances every live start with one stacked minimum-norm
    solve (``_min_norm_steps``) of its exact Jacobian and one evaluation of
    the residuals and Jacobians at the full steps (``_newton_system``).  Only
    a start whose full step does not lower its norm evaluates the 24 halved
    steps; it takes the first that does, as a sequential backtracking search
    would.  A start ends when its residuals or Jacobian overflow (an
    overflowed residual does not count towards its lowest norm), its norm
    reaches 1e-12, no step lowers it, a step lowers it by less than a
    relative _STAGNATION, or after _NEWTON_ITERATIONS steps;
    ``finish(start, theta, lowest norm)`` is then called as ``_Lockstep``
    describes.
    """
    halvings = 0.5 ** np.arange(1, 25)[:, None]
    batch = _Lockstep(pmap, theta, np.full(theta.shape[0], np.inf), finish, [theta.shape[0]])
    F, norm, J = _newton_system(table, pmap, theta)
    progress = np.ones(theta.shape[0], dtype=bool)
    for iteration in range(_NEWTON_ITERATIONS + 1):
        finite = np.isfinite(norm)
        batch.score = np.where(finite, np.minimum(batch.score, norm), batch.score)
        # a non-finite J has no usable step, and an SVD of it raises
        go = progress & finite & (norm > 1e-12) & np.isfinite(J).all(axis=(1, 2))
        F, norm, J = batch.keep(go & (iteration < _NEWTON_ITERATIONS), F, norm, J)
        if not batch.start.size:
            return
        delta = _min_norm_steps(J, F)
        step = pmap.project(batch.theta + delta)
        F, step_norm, J = _newton_system(table, pmap, step)
        # a step is decided by the norm of the evaluation that chose it
        new = step_norm.copy()
        missed = np.flatnonzero(~(new < norm))
        if missed.size:
            cands = pmap.project(batch.theta[missed, None] + halvings * delta[missed, None])
            values = _real_parts(table.at_points(pmap.points(cands)))
            tried = _row_norms(values.reshape(-1, values.shape[-1])).reshape(cands.shape[:-1])
            lower = tried < norm[missed, None]
            hit, pick = lower.any(axis=1), lower.argmax(axis=1)
            rows = np.arange(missed.size)
            new[missed] = np.where(hit, tried[rows, pick], np.nan)
            if hit.any():
                again = missed[hit]
                step[again] = cands[rows[hit], pick[hit]]
                F[again], step_norm[again], J[again] = _newton_system(table, pmap, step[again])
        moved = new < norm
        batch.theta = np.where(moved[:, None], step, batch.theta)
        # a step that lowers the norm by too little ends the start after it
        F, norm, J, progress = batch.keep(moved, F, step_norm, J,
                                          new < (1.0 - _STAGNATION) * norm)


def _sorted_point(x: np.ndarray) -> tuple[complex, ...]:
    """The values of x by real part, then imaginary part.

    Real parts are compared on a grid of BOUNDARY_SCALE (1 + max |x|):
    values whose real parts agree in exact arithmetic carry rounding noise
    of either sign there, and that noise must not decide the order.
    """
    grid = BOUNDARY_SCALE * (1.0 + float(np.max(np.abs(x))))
    return tuple(sorted((complex(v) for v in x),
                        key=lambda v: (float(np.rint(v.real / grid)), v.imag)))


def variety_search(polys, halfplane: HalfPlane | None = None, *,
                   pattern=None, budget: int = 200, seed: int = 0,
                   box: tuple[float, float, float] | None = None):
    """Search the common zero set for a point inside the closed half-plane.

    ``pattern`` is either an integer distinct-value budget or a pair
    (k_boundary, m_interior); ``budget`` counts Newton starts per pattern.
    Patterns run in order.  Start 0 of a pattern runs alone; if it misses,
    starts 1 to budget - 1 run as one lockstep batch of damped Gauss-Newton
    on the pattern's parameters (``_gauss_newton``), with the exact Jacobian
    and one stacked minimum-norm solve per step; a start stops once a step
    lowers its residual norm by less than a relative 1e-6.  A start is
    verified as it ends, unless a start of lower index has already hit, and
    a verified hit ends the starts above it.  A hit is checked again with
    the scalar e-vector and term-by-term evaluation, independently of the
    batch.  The starts are then read in order, so the result is that of
    running them one after another: FoundPoint on the first verified hit,
    else NoneFound with search statistics; a NoneFound is never a
    certificate of emptiness.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    H = halfplane if halfplane is not None else HalfPlane.upper()
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    n = polys[0].n
    if any(f.n != n for f in polys):
        raise DimensionMismatch("all polynomials must share the variable count")

    if pattern is None:
        pattern = n
    if isinstance(pattern, int):
        patterns = list(_budget_patterns(n, pattern))
    else:
        k_b, m_i = pattern
        patterns = _km_patterns(n, int(k_b), int(m_i))

    if box is None:
        pinned = _detect_pinned(polys)
        if 0 in pinned and 1 in pinned:
            bounds = compactness_bounds(pinned[0], pinned[1], n)
            if bounds is None:
                return NoneFound(patterns_tried=0, starts=0, best_residual=float("inf"),
                                 best_x=None,
                                 note="pinned leading symmetrics admit no stable point")
            half = math.sqrt(bounds.re_sq_bound) + 1.0
            box = (-half, half, bounds.im_hi + 1.0)
        else:
            box = (-5.0, 5.0, 5.0)

    table = _TermTable.compile(polys)

    def verify(x: np.ndarray):
        # Poly refuses an overflowed expansion as invalid input, where
        # vieta_from_roots would report a numerical failure: the start began
        # in a box too wide for the float range
        e = Poly(tuple(vieta_rows([x])[0])).z
        res = []
        for f in polys:
            scale = 1.0 + f.abs_eval_at_e(e)
            val = abs(f.eval_at_e(e))
            # an overflowed residual is no hit, whatever its scale
            if not math.isfinite(val) or val > GWS_RESIDUAL_SCALE * scale:
                return None
            res.append(val)
        btol = BOUNDARY_SCALE * (1.0 + float(np.max(np.abs(x))))
        if any(H.signed_distance(v) < -btol for v in x):
            return None
        return tuple(float(v) for v in res)

    total_starts = 0
    best_residual = float("inf")
    best_x = None
    for p_idx, pattern_obj in enumerate(patterns):
        pmap = pattern_obj.affine_map(H)
        runs = {}

        def finish(s_idx: int, theta: np.ndarray, norm: float) -> bool:
            x = pmap.points(theta)
            runs[s_idx] = (verify(x), x, norm)
            return runs[s_idx][0] is not None

        # start 0 alone, then, if it misses, the rest as one batch: a pattern
        # whose start 0 hits then runs no batch, and a step of a batch costs
        # more than a step of one start
        for first, stop in ((0, min(budget, 1)), (1, budget)):
            if first >= stop or any(run[0] is not None for run in runs.values()):
                break
            theta = _start_thetas(pmap, box, (_SEARCH_STREAM, seed, p_idx), range(first, stop))
            _gauss_newton(table, pmap, theta,
                          lambda s, t, norm: finish(first + s, t, norm))
        for s_idx in range(budget):
            res, x, norm = runs[s_idx]
            total_starts += 1
            if norm < best_residual:
                best_residual = norm
                best_x = _sorted_point(x)
            if res is not None:
                return FoundPoint(x=_sorted_point(x), residuals=res,
                                  pattern=pattern_obj.describe(),
                                  starts_used=total_starts)
    return NoneFound(patterns_tried=len(patterns), starts=total_starts,
                     best_residual=best_residual, best_x=best_x)


@dataclasses.dataclass(frozen=True)
class HalfDegreeResult:
    inf_full: float
    full_unbounded: bool
    witness_full: tuple[complex, ...]
    inf_restricted: float
    restricted_unbounded: bool
    witness_restricted: tuple[complex, ...]
    k: int


@dataclasses.dataclass(frozen=True)
class _Objective:
    """lam Re f + mu Im f, f the one polynomial of ``table``, on the
    parameters of a ``_PatternMap``: values (...) at theta (..., params),
    and exact gradients (B, params) at theta (B, params)."""

    table: _TermTable
    lam: float
    mu: float

    def _weigh(self, values: np.ndarray) -> np.ndarray:
        return self.lam * values[..., 0].real + self.mu * values[..., 0].imag

    def __call__(self, pmap: _PatternMap, theta: np.ndarray) -> np.ndarray:
        return self._weigh(self.table.at_points(pmap.points(theta)))

    def gradient(self, pmap: _PatternMap, theta: np.ndarray) -> np.ndarray:
        return self._weigh(pmap.derivatives(self.table, theta)[1])


def _descend(objective: _Objective, pmap: _PatternMap, theta0: np.ndarray, finish,
             ends) -> None:
    """Projected steepest descent with backtracking from every row of theta0
    (starts x params) on the map's parameters, in lockstep; the starts form
    the groups of ``_Lockstep`` that end at ``ends``.

    Each iteration reads, for every live start, the exact gradient of the
    objective (``_Objective.gradient``) and evaluates one (starts, 40,
    params) stack of the projected step and its halvings; a start takes the
    first that lowers its value by more than a relative 1e-14.  A start
    ends when its value is below _UNBOUNDED_FLOOR, its gradient vanishes,
    no halved step lowers it, or after _DESCENT_ITERATIONS iterations;
    ``finish(start, theta, value)`` is then called as ``_Lockstep``
    describes.  A start also ends when what it reads is not finite: its
    start value, its gradient (it then finishes with value NaN) or an
    accepted step's value.
    """
    theta = pmap.project(theta0[:, None])[:, 0]
    batch = _Lockstep(pmap, theta, objective(pmap, theta[:, None])[:, 0], finish, ends)
    halvings = 0.5 ** np.arange(40)
    for _ in range(_DESCENT_ITERATIONS):
        batch.keep(np.isfinite(batch.score) & (batch.score >= _UNBOUNDED_FLOOR))
        if not batch.start.size:
            return
        grad = objective.gradient(batch.pmap, batch.theta)
        gnorm = _row_norms(grad)
        finite = np.isfinite(grad).all(axis=1)
        batch.score = np.where(finite, batch.score, np.nan)
        grad, gnorm = batch.keep(finite & ~(gnorm <= 1e-12 * (1.0 + np.abs(batch.score))),
                                 grad, gnorm)
        theta, value = batch.theta, batch.score
        step = np.maximum(1.0, np.abs(value) / (gnorm * gnorm + 1e-300))
        cands = batch.pmap.project(
            theta[:, None] - (step[:, None] * halvings)[:, :, None] * grad[:, None])
        values = objective(batch.pmap, cands)
        lower = values < (value - 1e-14 * (1.0 + np.abs(value)))[:, None]
        cands, values, lower = batch.keep(lower.any(axis=1), cands, values, lower)
        rows, pick = np.arange(len(cands)), lower.argmax(axis=1)
        batch.theta = cands[rows, pick]
        batch.score = values[rows, pick]
    batch.keep(np.zeros(batch.start.size, dtype=bool))


def halfdeg_optimize(f: SymmetricPoly, lam: float, mu: float, *,
                     budget: int = 20, seed: int = 0,
                     box: tuple[float, float, float] | None = None) -> HalfDegreeResult:
    """Estimate inf of lam*Re(f) + mu*Im(f) over the closed upper power set
    and over its few-distinct-coordinates subset.

    The restricted space uses k = max(floor(d/2), 2): at most k distinct
    real coordinates (with multiplicities) plus at most k interior ones.
    The full pass has one pattern, all n coordinates interior; the
    restricted pass has the patterns of that space.  Every start of both
    passes, by pass, then pattern, then start, runs projected steepest
    descent on the exact gradient in one lockstep batch (``_descend``), on
    its pattern's parameters padded to the widest pattern's.  Unboundedness
    is reported when a start dives under the floor and the doubled witness
    drops at least 1.5 times as far below the objective at the half-plane's
    base point (all parameters zero) as the witness does; that test runs as
    a start ends, unless a start of lower index in its pass has already
    passed it, and a pass ends the starts above it in its pass.  A start
    whose objective overflows on its descent's path ends the starts above
    it in its pass too.  Each pass is then read in order, so its result is
    that of running its starts one after another: NonConvergence is raised
    when the first start that overflows comes before the first that passes
    the doubling test.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    H = HalfPlane.upper()
    k = max(f.degree // 2, 2)
    if box is None:
        box = (-3.0, 3.0, 3.0)

    passes = ([_Pattern(multiplicities=(), interior=f.n, boundary_real=True)],
              _km_patterns(f.n, k, k))
    objective = _Objective(_TermTable.compile([f]), lam, mu)
    maps = [pattern_obj.affine_map(H) for patterns in passes for pattern_obj in patterns]
    streams = [(tag, p_idx) for tag, patterns in enumerate(passes)
               for p_idx in range(len(patterns))]
    stacked = _PatternMap.stack(maps, budget)
    theta0 = np.zeros(stacked.matrix.shape[:2])
    for i, (pmap, stream) in enumerate(zip(maps, streams)):
        theta0[i * budget:(i + 1) * budget, :pmap.clamped.size] = _start_thetas(
            pmap, box, (_SEARCH_STREAM, seed, *stream), range(budget))
    runs = {}

    def finish(start: int, theta: np.ndarray, value: float) -> bool:
        if not math.isfinite(value):
            # one start at a time, the pass would stop here
            runs[start] = None
            return True
        pmap = maps[start // budget]
        theta = theta[:pmap.clamped.size]
        dives = False
        if value < _UNBOUNDED_FLOOR:
            base, doubled = objective(pmap, np.stack([np.zeros_like(theta), 2.0 * theta]))
            dives = bool(doubled - base <= 1.5 * (value - base))
        runs[start] = (value, theta, dives)
        return dives

    ends = np.cumsum([len(patterns) * budget for patterns in passes])
    _descend(objective, stacked, theta0, finish, ends)

    def read(first: int, stop: int):
        best, witness = float("inf"), ()
        for start in range(first, stop):
            if runs[start] is None:
                raise NonConvergence("half-degree objective is not finite at a descent point")
            value, theta, dives = runs[start]
            if value < best or dives:
                best = value
                witness = tuple(complex(v) for v in maps[start // budget].points(theta))
            if dives:
                return float("-inf"), True, witness
        return best, False, witness

    return HalfDegreeResult(*read(0, ends[0]), *read(ends[0], ends[1]), k=k)
