"""Affine semigroups of lattice points in a cone, and their monomial algebras.

The semigroup of all lattice points of a rational polyhedral cone is
finitely generated; this module computes the unique minimal generating
set (pointed part plus a basis of the unit group when the cone has
lineality) and provides the graded algebra the rest of the package
differentiates.  A full-dimensional pointed cone is worked on in the
ambient coordinates; any other cone in a lattice where its pointed part
is full-dimensional.  There a cone of rank 2 has its generators in closed
form, by the Hirzebruch-Jung continued fraction, and any other has them
sieved from the parallelepiped points of a simplicial cover.
"""

from __future__ import annotations

import operator
import warnings
from fractions import Fraction
from itertools import groupby
from math import prod
from operator import itemgetter, le, mul

from .cone import Cone, _facets, _incidence
from .errors import DimensionError, IntegrityError, PreconditionError
from .lattice import (
    Vec,
    add,
    adjugate,
    determinant,
    hermite_coordinates,
    hermite_normal_form,
    matrix_multiply,
    pairing,
    saturated_span,
    smith_normal_form,
    vector,
)

# parallelepiped points of a cover, or generators of a plane cone, above which
# a Hilbert basis warns before it lists them
MAX_PARALLELEPIPED_POINTS = 10**6


class AffineSemigroup:
    """Lattice points of a cone in the dual lattice, with minimal generators.

    ``generators`` is the unique minimal generating set of the pointed
    part; ``units`` is a lattice basis of the invertible part (each unit
    is implicitly paired with its inverse).  ``root_conditions`` keeps, per
    extremal ray of the dual cone, the root conditions that
    :mod:`torikit.derivations` derives from the semigroup once.
    """

    __slots__ = ("cone", "generators", "units", "root_conditions")

    def __init__(self, cone: Cone, generators, units):
        self.cone = cone
        self.generators: tuple[Vec, ...] = tuple(tuple(g) for g in generators)
        self.units: tuple[Vec, ...] = tuple(tuple(u) for u in units)
        self.root_conditions: dict[Vec, tuple] = {}

    @property
    def rank(self) -> int:
        return self.cone.ambient_rank

    def contains(self, point) -> bool:
        """Exact membership, decided by the halfspace description of the cone."""
        return self.cone.contains(point)

    def __eq__(self, other):
        return (
            isinstance(other, AffineSemigroup)
            and self.cone == other.cone
            and self.generators == other.generators
            and self.units == other.units
        )

    def __repr__(self):
        return f"AffineSemigroup(generators={list(self.generators)}, units={list(self.units)})"


def hilbert_basis(dual_cone: Cone) -> AffineSemigroup:
    """Minimal generating data of the semigroup of lattice points of a cone.

    The units are the lineality basis and the generators the irreducible
    points of the pointed part.  A full-dimensional pointed cone, such as
    the dual of any strongly convex cone, is worked on in the ambient
    coordinates on its own rays and facet normals, any other cone in
    those of :func:`_full_dimensional_quotient`.
    """
    gens = _irreducible_points(dual_cone)
    return AffineSemigroup(dual_cone, tuple(sorted(gens)), dual_cone.lineality)


def _irreducible_points(cone: Cone) -> list[Vec]:
    """Irreducible lattice points of the pointed part of a cone, in ambient coordinates.

    They are computed on the full-dimensional pointed cone of
    :func:`_full_dimensional_quotient` (the cone itself when it is
    full-dimensional and pointed), by :func:`_plane_basis` in rank 2 and by
    :func:`_sieved_points` in any other rank, and lifted back.
    """
    if not cone.rays:
        return []
    local, lift = cone, None
    if cone.lineality or cone.dim() < cone.ambient_rank:
        local, lift = _full_dimensional_quotient(cone)
    if local.ambient_rank == 2:
        irreducible = _plane_basis(*local.rays)
    else:
        irreducible = _sieved_points(local)
    return irreducible if lift is None else list(matrix_multiply(irreducible, lift))


def _plane_basis(u: Vec, w: Vec) -> list[Vec]:
    """Irreducible lattice points of the pointed plane cone(u, w), by the
    Hirzebruch-Jung continued fraction (Oda, Convex Bodies and Algebraic
    Geometry, 1.6; Fulton, Introduction to Toric Varieties, 2.6).

    Order the primitive rays so that d = det(w, u) > 0.  Euclid gives f with
    det(f, u) = 1, so (f, u) is a lattice basis and w = d * f + det(f, w) * u;
    adding a multiple of u to f makes w = d * f - k * u with 0 <= k < d, and
    k = 0 only when d = 1 and w = f.  Put u_0 = u, u_1 = f and, while k > 0,
    u_{i+1} = b * u_i - u_{i-1} with b = ceil(d / k) and (d, k) <- (k, b * k - d).
    Substituting u_{i-1} = b * u_i - u_{i+1} into w = d * u_i - k * u_{i-1}
    gives w = k * u_{i+1} - (b * k - d) * u_i, the same shape with the new
    (d, k) and 0 <= b * k - d < k, so k falls at every step and reaches 0 at
    the last point, which is w.

    Each det(u_{i+1}, u_i) is 1, so consecutive points are lattice bases, and
    u_{i+1} = (w + k * u_i) / d lies in cone(u_i, w): the cones
    cone(u_i, u_{i+1}) tile cone(u, w), and every lattice point of it is a
    nonnegative integer combination of some consecutive pair.  The points
    therefore generate.  None is a sum of two nonzero lattice points x, y of
    the cone: for the linear form l that is 1 on u_i and u_{i+1} (or on
    u_{i-1} and u_i), l(u_{j-1}) + l(u_{j+1}) = b * l(u_j) with b >= 2 makes
    j -> l(u_j) convex, so l >= 1 on every u_j and hence on x and y, while
    l(u_i) = 1 < 2.  So the points are the Hilbert basis: the lattice points
    on the compact edges of conv((cone ∩ Z^2) - 0).

    A step with b = 2 keeps u_{i+1} - u_i = u_i - u_{i-1}, a point inside an
    edge, and takes (d, k) to (d - e, k - e) with e = d - k.  So while
    k >= e, that is b = 2, the next k // e steps run along one edge and are
    taken at once: the loop turns once per vertex of that boundary, about
    as often as Euclid on (d, k), and the number of generators is known
    before any is listed.  More than ``MAX_PARALLELEPIPED_POINTS`` warns first.
    """
    d = w[0] * u[1] - w[1] * u[0]
    if d < 0:
        u, w, d = w, u, -d
    # x * u[1] - y * u[0] = g = gcd for the running (g, x, y)
    g, x, y, h, z, t = u[1], 1, 0, -u[0], 0, 1
    while h:
        q = g // h
        g, x, y, h, z, t = h, z, t, g - q * h, x - q * z, y - q * t
    if g * g != 1:
        raise IntegrityError(f"ray {u} of the plane cone is not primitive")
    f = (g * x, g * y)  # det(f, u) = g * g = 1
    c = f[0] * w[1] - f[1] * w[0]  # w = d * f + c * u
    k = -c % d
    shift = (c + k) // d
    f = (f[0] + shift * u[0], f[1] + shift * u[1])
    runs = []  # (p, s, m): the points p + j * s for j = 1..m, in order
    prev, point = u, f
    while k:
        b = -(-d // k)
        e = d - k
        m = k // e if b == 2 else 1
        s = (b * point[0] - prev[0] - point[0], b * point[1] - prev[1] - point[1])
        runs.append((point, s, m))
        prev = (point[0] + (m - 1) * s[0], point[1] + (m - 1) * s[1])
        point = (prev[0] + s[0], prev[1] + s[1])
        d, k = (d - m * e, k - m * e) if b == 2 else (k, b * k - d)
    if point != w:
        raise IntegrityError(f"the continued fraction of cone({u}, {w}) ends at {point}")
    count = 2 + sum(m for _, _, m in runs)
    if count > MAX_PARALLELEPIPED_POINTS:
        warnings.warn(
            f"the plane cone has {count} generators; listing them will take long",
            RuntimeWarning,
            stacklevel=3,
        )
    points = [u, f]
    for p, s, m in runs:
        points += [(p[0] + j * s[0], p[1] + j * s[1]) for j in range(1, m + 1)]
    return points


def _sieved_points(local: Cone) -> list[Vec]:
    """Irreducible lattice points of a full-dimensional pointed cone, sieved from
    the rays and parallelepiped points of a simplicial cover.

    A piece's |det| counts its points before any walk: a cover with more than
    ``MAX_PARALLELEPIPED_POINTS`` in all warns first, and a piece with
    |det| = 1 adds only the origin and is not walked.  With v(x) the values
    <a, x> on the facet normals a, h - c lies in the cone exactly when
    v(c) <= v(h) componentwise.  The normals of a full-dimensional pointed
    cone span, so v is injective: candidates are keyed by v, which also
    merges the points that pieces share, and only the kept ones are returned.
    The grade sum(v(x)) leads each key, as the pairing with the sum of the
    normals, so candidates sort by increasing grade, and h is kept when no kept
    c with 2 * grade(c) <= grade(h) has v(c) <= v(h).  That cutoff loses
    nothing: a reducible h is a sum of two or more irreducibles, and the
    one of least grade has at most half the grade of h and lies below it.
    Two candidates of one grade never lie below each other, so the order
    within a grade does not matter.
    """
    pieces = [(piece, abs(determinant(piece))) for piece in _simplicial_cover(local)]
    points = sum(volume for _, volume in pieces)
    if points > MAX_PARALLELEPIPED_POINTS:
        warnings.warn(
            f"the simplicial cover has {points} parallelepiped points; "
            "the walk will take long",
            RuntimeWarning,
            stacklevel=3,
        )
    normals = (tuple(map(sum, zip(*local.facet_normals))), *local.facet_normals)
    candidates = {_values(normals, ray): ray for ray in local.rays}
    for piece, volume in pieces:
        if volume > 1:
            candidates.update(_parallelepiped_points(piece, normals))
    candidates.pop((0,) * len(normals), None)  # the origin

    graded = sorted(candidates, key=itemgetter(0))
    if graded[0][0] <= 0:
        raise IntegrityError("grading is not positive on the pointed cone")
    kept: list[Vec] = []
    low = 0  # kept[:low] have at most half the grade of the group
    for grade, group in groupby(graded, itemgetter(0)):
        while low < len(kept) and 2 * kept[low][0] <= grade:
            low += 1
        below = kept[:low]
        for v_h in group:
            for v_c in below:
                if all(map(le, v_c, v_h)):
                    break
            else:
                kept.append(v_h)
    return [candidates[v] for v in kept]


def _values(normals: tuple[Vec, ...], x: Vec) -> Vec:
    """The pairings <a, x> with the normals a."""
    return tuple([sum(map(mul, a, x)) for a in normals])


def _full_dimensional_quotient(cone: Cone) -> tuple[Cone, tuple[Vec, ...]]:
    """The pointed part of a cone as a full-dimensional cone, and the rows that lift it back.

    The Smith form left * U * right = diag(1, ..., 1) of the saturated
    lineality basis U maps x to (x * right)[u:] in the quotient by the
    units, with rows u.. of right^-1 a section.  The quotient of a
    full-dimensional cone is full-dimensional; that of any other is so in
    Hermite coordinates of its saturated span, and z lifts to z * span * section.
    """
    quotient, section = cone.rays, None
    u = len(cone.lineality)
    if u:
        snf = smith_normal_form(cone.lineality)
        if any(d != 1 for d in snf.diagonal[: snf.rank]):
            raise IntegrityError("lineality basis is not saturated")
        quotient = [row[u:] for row in matrix_multiply(cone.rays, snf.right)]
        section = snf.right_inverse[u:]
    if cone.dim() < cone.ambient_rank:
        span = saturated_span(quotient)
        quotient = [hermite_coordinates(span, y) for y in quotient]
        section = span if section is None else matrix_multiply(span, section)
    local = Cone.from_rays(quotient, len(quotient[0]))
    if local.span_equations:
        raise IntegrityError("the pointed cone is not full-dimensional in its span")
    return local, section


def _simplicial_cover(cone: Cone) -> set[tuple[Vec, ...]]:
    """Cover of a full-dimensional pointed cone by simplicial cones spanned by its rays.

    A face (its sorted rays) with more rays than its dimension is coned
    from its first ray over the covers of its facets that miss it, which
    :func:`~torikit.cone._facets` reads off the facet incidence.
    """
    if len(cone.rays) == cone.ambient_rank:
        return {cone.rays}
    walls = [zeros for _, zeros in _incidence(cone)]

    def pull(face: tuple[Vec, ...], dim: int) -> set[tuple[Vec, ...]]:
        if len(face) == dim:
            return {face}
        out = set()
        for facet in _facets(frozenset(face), walls):
            if face[0] in facet:
                continue
            for piece in pull(tuple(sorted(facet)), dim - 1):
                out.add(tuple(sorted(piece + face[:1])))
        return out

    return pull(cone.rays, cone.ambient_rank)


def _parallelepiped_points(gens: tuple[Vec, ...], normals: tuple[Vec, ...]) -> dict[Vec, Vec]:
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for k independent gens in Z^k,
    each keyed by its values, the tuple of its pairings with the normals.

    With D = |det G| and adj' = sign(det G) * adj(G), adj' * G = D * I, so
    the point x = t * G has t = x * adj' / D; write c = D * t.  The points
    stand one to one for the cosets of ZG in Z^k: x + ZG meets the
    parallelepiped once, in x - floor(t) * G.  The Hermite basis H of ZG is
    upper triangular with positive diagonal h and prod(h) = D, and each
    coset holds exactly one y with 0 <= y_i < h_i: the rows of H reduce the
    coordinates of x into [0, h_i) one column after the other, and a nonzero
    z * H, z_i its first nonzero entry, is zero before column i and z_i * h_i
    there, which two y of the box cannot differ by.  The point of y has
    c = y * adj' mod D.

    The y are walked like an odometer with one wheel per h_i > 1.  Turning
    a wheel adds its row of adj' to c and wrapping it from h_i - 1 back to 0
    adds (1 - h_i) times that row, all mod D.  A point thus moves by one
    step s: the wraps of the wheels before the one that turns, and its
    turn.  As s = m * adj' mod D for an integer m, s * G = m * D mod D = 0,
    so its move s * G / D is a lattice point, computed with its values once
    per step.  A point costs the addition of one step to (c, x, v(x)) and,
    for each c_j that reaches D, the subtraction of (D * e_j, g_j, v(g_j)).
    """
    k = len(gens)
    try:
        det, adj = adjugate(gens)
    except PreconditionError:
        raise IntegrityError("parallelepiped generators are not independent") from None
    order = abs(det)
    if det < 0:
        adj = tuple(tuple(-x for x in row) for row in adj)
    heights = [row[i] for i, row in enumerate(hermite_normal_form(gens))]
    if len(heights) != k or prod(heights) != order:
        raise IntegrityError(f"Hermite diagonal {heights} does not multiply to {order}")
    columns = tuple(zip(*gens))
    sequence: list[Vec] = []  # the step to each point after the origin, in walk order
    wrapped = (0,) * k
    for h, row in zip(heights, adj):
        if h > 1:
            s = [(w + a) % order for w, a in zip(wrapped, row)]
            move = []
            for column in columns:
                q, r = divmod(sum(map(mul, s, column)), order)
                if r:
                    raise IntegrityError("parallelepiped point is not a lattice point")
                move.append(q)
            step = (*s, *move, *_values(normals, move))
            sequence = (sequence + [step]) * (h - 1) + sequence
            wrapped = tuple([(w + (1 - h) * a) % order for w, a in zip(wrapped, row)])
    carries = [(*(order * (i == j) for j in range(k)), *g, *_values(normals, g))
               for i, g in enumerate(gens)]
    start = 2 * k
    state = (0,) * (start + len(normals))
    points = {state[start:]: state[k:start]}
    for step in sequence:
        state = tuple(map(operator.add, state, step))
        for j in range(k):
            if state[j] >= order:
                state = tuple(map(operator.sub, state, carries[j]))
        points[state[start:]] = state[k:start]
    if len(points) != order:
        raise IntegrityError(f"found {len(points)} parallelepiped points, expected {order}")
    return points


class AlgebraElement:
    """Finitely supported rational combination of lattice monomials.

    A monomial with exponent ``m`` stands for the character ``x^m`` of
    the torus; products add exponents.  Exponents are unrestricted
    lattice vectors; regularity with respect to an ambient semigroup is
    a checked property, not part of the type.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        clean = {}
        width = None
        for m, c in dict(terms).items():
            m = vector(m)
            if width is None:
                width = len(m)
            elif len(m) != width:
                raise DimensionError("mixed exponent ranks in one element")
            c = Fraction(c)
            if c:
                clean[m] = c
        self._terms = clean

    @classmethod
    def monomial(cls, exponent, coefficient=1) -> "AlgebraElement":
        return cls({vector(exponent): Fraction(coefficient)})

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    def terms(self) -> list[tuple[Vec, Fraction]]:
        return sorted(self._terms.items())

    def support(self) -> tuple[Vec, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, exponent) -> Fraction:
        return self._terms.get(tuple(exponent), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_regular(self, semigroup: AffineSemigroup) -> bool:
        return all(semigroup.contains(m) for m in self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return AlgebraElement(out)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return AlgebraElement(out)

    def __neg__(self):
        return AlgebraElement({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            out: dict[Vec, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = add(m1, m2)
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
            return AlgebraElement(out)
        if isinstance(other, (int, Fraction)):
            return AlgebraElement({m: c * other for m, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 1:
            raise ValueError("powers start at 1 here")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __repr__(self):
        if not self._terms:
            return "AlgebraElement(0)"
        bits = []
        for m, c in self.terms():
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}x^{m}")
        return "AlgebraElement(" + " + ".join(bits) + ")"


def boundary_projection(ray, semigroup: AffineSemigroup, element: AlgebraElement) -> AlgebraElement:
    """Restrict an element to the divisor wall orthogonal to ``ray``.

    Terms pairing positively with the ray are killed, terms on the wall
    survive unchanged.  A term pairing negatively means the element was
    not regular and is reported as a data-integrity failure.
    """
    rho = vector(ray)
    if len(rho) != semigroup.rank:
        raise DimensionError("ray rank does not match the semigroup")
    out = {}
    for m, c in element.terms():
        p = pairing(m, rho)
        if p < 0:
            raise IntegrityError(f"exponent {m} pairs negatively with ray {rho}: element is not regular")
        if p == 0:
            out[m] = c
    return AlgebraElement(out)


def fan_coordinate_semigroup(fan) -> AffineSemigroup:
    """Generators of the global regular functions of the toric variety of a fan.

    The grading semigroup is the set of lattice points lying in every
    dual cone of the fan, i.e. in the dual of the cone spanned by the
    support; its minimal generators are returned.  When sigma is a
    unimodular full-dimensional simplex, read off its kept facet pairs, its
    normals a_j are the dual basis of its rays r_i (<a_j, r_i> = 1 if i = j,
    else 0): a lattice point m of sigma^v is sum <m, r_j> a_j with
    coefficients in N, and an a_j, of coefficient sum 1, is no sum of two
    nonzero ones, so the normals, which are the rays of sigma^v in sorted
    order, are its Hilbert basis, with no units and no sieve.
    """
    sigma = fan.support_cone().cone
    if sigma._is_unimodular_simplex():
        dual = sigma.dual()
        return AffineSemigroup(dual, dual.rays, ())
    return hilbert_basis(sigma.dual())
