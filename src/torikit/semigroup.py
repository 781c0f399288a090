"""Affine semigroups of lattice points in a cone, and their monomial algebras.

The semigroup of all lattice points of a rational polyhedral cone is
finitely generated; this module computes the unique minimal generating
set (pointed part plus a basis of the unit group when the cone has
lineality) and provides the graded algebra the rest of the package
differentiates.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import prod
from operator import le, mul

from .cone import Cone
from .errors import DimensionError, IntegrityError
from .lattice import (
    Vec,
    add,
    determinant,
    hermite_coordinates,
    matrix_multiply,
    matrix_rank,
    pairing,
    saturated_span,
    smith_normal_form,
    vector,
)

# parallelepiped points above which a Hilbert basis warns before its walk
MAX_PARALLELEPIPED_POINTS = 10**7


class AffineSemigroup:
    """Lattice points of a cone in the dual lattice, with minimal generators.

    ``generators`` is the unique minimal generating set of the pointed
    part; ``units`` is a lattice basis of the invertible part (each unit
    is implicitly paired with its inverse).
    """

    __slots__ = ("cone", "generators", "units")

    def __init__(self, cone: Cone, generators, units):
        self.cone = cone
        self.generators: tuple[Vec, ...] = tuple(tuple(g) for g in generators)
        self.units: tuple[Vec, ...] = tuple(tuple(u) for u in units)

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

    The pointed part is computed by covering the cone with simplicial
    subcones, listing the lattice points of each fundamental
    parallelepiped from its group (|det| points per piece, through a
    Smith form) and sieving the union down to the irreducible elements.
    In coordinates of its saturated span the pointed cone is
    full-dimensional, so h - c lies in it exactly when <a, c> <= <a, h>
    for every facet normal a: the sieve compares tuples of support-form
    values and never tests cone membership.  Lineality is split off
    first through a Smith normal form of its basis, so cones with units
    are handled uniformly.
    """
    units = dual_cone.lineality
    if not units:
        gens = _pointed_hilbert_basis(dual_cone)
        return AffineSemigroup(dual_cone, tuple(sorted(gens)), ())
    snf = smith_normal_form(units)
    if any(d != 1 for d in snf.diagonal[: snf.rank]):
        raise IntegrityError("lineality basis is not saturated")
    u = len(units)
    section = snf.right_inverse[u:]

    def project(x: Vec) -> Vec:
        coords = matrix_multiply((x,), snf.right)[0]
        return coords[u:]

    pointed = Cone.from_rays([project(r) for r in dual_cone.rays], dual_cone.ambient_rank - u)
    gens = []
    for g in _pointed_hilbert_basis(pointed):
        lifted = tuple(sum(g[i] * section[i][j] for i in range(len(g)))
                       for j in range(dual_cone.ambient_rank))
        gens.append(lifted)
    return AffineSemigroup(dual_cone, tuple(sorted(gens)), units)


def _pointed_hilbert_basis(cone: Cone) -> list[Vec]:
    """Irreducible lattice points of a pointed cone, in ambient coordinates.

    The cone is rewritten in Hermite coordinates of its saturated span,
    where it is full-dimensional; the candidates are its rays and the
    parallelepiped points of a simplicial cover.  Each piece is square,
    so its |det| counts its points before any walk: a cover with more
    than ``MAX_PARALLELEPIPED_POINTS`` in all is announced by a warning
    first, and a piece with |det| = 1, a lattice basis, adds only the
    origin and is not walked.  Each candidate x gets
    its value tuple v(x) = (<a, x> for a in the facet normals) and the
    grade sum(v(x)), which is positive away from the apex.  A
    full-dimensional cone is cut out by its facet normals alone, so
    h - c is in it exactly when v(c) <= v(h) componentwise.  Candidates
    are taken by increasing grade, and one is kept when no kept value
    tuple lies below its own.  The normals span the dual space, so v is
    injective and a kept c with v(c) <= v(h) has a smaller grade unless
    c = h: no grade comparison is needed.
    """
    if cone.lineality:
        raise IntegrityError("expected a pointed cone")
    if not cone.rays:
        return []
    span = saturated_span(cone.rays)
    k = len(span)
    local = Cone.from_rays([hermite_coordinates(span, r) for r in cone.rays], k)
    if local.span_equations:
        raise IntegrityError("the pointed cone is not full-dimensional in its span")

    pieces = [(piece, abs(determinant(piece))) for piece in _simplicial_cover(local)]
    points = sum(volume for _, volume in pieces)
    if points > MAX_PARALLELEPIPED_POINTS:
        warnings.warn(
            f"the simplicial cover has {points} parallelepiped points; "
            "the walk will take long",
            RuntimeWarning,
            stacklevel=2,
        )
    candidates = set(local.rays)
    for piece, volume in pieces:
        if volume > 1:
            candidates |= _parallelepiped_points(piece)
    candidates.discard((0,) * k)

    normals = local.facet_normals
    graded = []
    for x in candidates:
        values = tuple([sum(map(mul, a, x)) for a in normals])
        graded.append((sum(values), x, values))
    graded.sort()
    if graded[0][0] <= 0:
        raise IntegrityError("grading is not positive on the pointed cone")

    kept: list[Vec] = []
    kept_values: list[Vec] = []
    for _, h, v_h in graded:
        if not any(all(map(le, v_c, v_h)) for v_c in kept_values):
            kept.append(h)
            kept_values.append(v_h)

    out = []
    for h in kept:
        out.append(tuple(sum(h[i] * span[i][j] for i in range(k))
                         for j in range(cone.ambient_rank)))
    return out


def _simplicial_cover(cone: Cone) -> set[tuple[Vec, ...]]:
    """Cover of a pointed cone by simplicial subcones spanned by its rays."""
    rays = cone.rays
    if matrix_rank(rays) == len(rays):
        return {rays}
    apex = rays[0]
    out: set[tuple[Vec, ...]] = set()
    dim = cone.dim()
    for facet in cone.faces():
        if facet.dim() != dim - 1 or apex in facet.rays:
            continue
        for piece in _simplicial_cover(facet):
            out.add(tuple(sorted(set(piece) | {apex})))
    return out


def _parallelepiped_points(gens: tuple[Vec, ...]) -> set[Vec]:
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for independent gens.

    These points stand one to one for the elements of the group
    (lattice points of the span of G) / ZG, which has prod(d) elements
    for the Smith form left * G * right = diag(d).  Row i of the inverse
    of ``right`` is (1/d_i) * left_i * G, so with D = prod(d) the point
    of the group element y (0 <= y_i < d_i) is c * G / D for
    c = sum_i y_i * step_i reduced mod D, step_i = (D / d_i) * left_i;
    the division is exact.  The vectors c are walked like an odometer
    with one wheel per d_i > 1: turning wheel i adds step_i mod D, and
    since d_i * step_i = 0 mod D, a wheel that wraps from d_i - 1 back to
    0 also adds one step.  So each point costs one vector addition (and
    one more per carry) and k dot products with the columns of G.
    """
    snf = smith_normal_form(gens)
    if snf.rank != len(gens):
        raise IntegrityError("parallelepiped generators are not independent")
    order = prod(snf.diagonal)
    wheels = [(d, tuple(order // d * x for x in row))
              for d, row in zip(snf.diagonal, snf.left) if d > 1]
    turns = [0] * len(wheels)
    columns = tuple(zip(*gens))
    c = (0,) * len(gens)
    points: set[Vec] = set()
    while True:
        point = []
        for column in columns:
            q, r = divmod(sum(map(mul, c, column)), order)
            if r:
                raise IntegrityError("parallelepiped point is not a lattice point")
            point.append(q)
        points.add(tuple(point))
        for i, (d, step) in enumerate(wheels):
            c = tuple([(ci + si) % order for ci, si in zip(c, step)])
            turns[i] += 1
            if turns[i] < d:
                break
            turns[i] = 0
        else:
            break
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
        data = dict(terms)
        clean = {}
        width = None
        for m, c in data.items():
            c = Fraction(c)
            if not c:
                continue
            m = tuple(int(x) for x in m)
            if width is None:
                width = len(m)
            elif len(m) != width:
                raise DimensionError("mixed exponent ranks in one element")
            clean[m] = c
        self._terms = clean

    @classmethod
    def monomial(cls, exponent, coefficient=1) -> "AlgebraElement":
        return cls({tuple(int(x) for x in exponent): Fraction(coefficient)})

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
    support; its minimal generators are returned.
    """
    sigma = fan.support_cone().cone
    return hilbert_basis(sigma.dual())
