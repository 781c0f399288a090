"""Affine semigroups of lattice points in a cone, and their monomial algebras.

The semigroup of all lattice points of a rational polyhedral cone is
finitely generated; this module computes the unique minimal generating
set (pointed part plus a basis of the unit group when the cone has
lineality) and provides the graded algebra the rest of the package
differentiates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .cone import Cone
from .errors import DimensionError, IntegrityError
from .lattice import (
    Vec,
    add,
    hermite_coordinates,
    matrix_multiply,
    matrix_rank,
    pairing,
    saturated_span,
    smith_normal_form,
    sub,
    vector,
)


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
    Lineality is split off first through a Smith normal form of its
    basis, so cones with units are handled uniformly.
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
    if cone.lineality:
        raise IntegrityError("expected a pointed cone")
    if not cone.rays:
        return []
    span = saturated_span(cone.rays)
    k = len(span)
    local = Cone.from_rays([hermite_coordinates(span, r) for r in cone.rays], k)

    candidates = set(local.rays)
    for piece in _simplicial_cover(local):
        candidates |= _parallelepiped_points(piece, k)
    candidates.discard((0,) * k)

    # grading that is strictly positive away from the apex
    grade_vec = tuple(sum(col) for col in zip(*local.facet_normals))
    grade = {x: pairing(grade_vec, x) for x in candidates}
    if any(g <= 0 for g in grade.values()):
        raise IntegrityError("grading is not positive on the pointed cone")

    kept: list[Vec] = []
    for h in sorted(candidates, key=lambda x: (grade[x], x)):
        reducible = any(grade[c] < grade[h] and local.contains(sub(h, c)) for c in kept)
        if not reducible:
            kept.append(h)

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


def _parallelepiped_points(gens: tuple[Vec, ...], rank: int) -> set[Vec]:
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for independent gens.

    These points stand one to one for the elements of the group
    (lattice points of the span of G) / ZG, which has prod(d) elements
    for the Smith form left * G * right = diag(d).  Row i of the inverse
    of ``right`` is (1/d_i) * left_i * G, so with D = prod(d) the point
    of the group element y (0 <= y_i < d_i) is c * G / D for
    c = sum_i y_i * (D / d_i) * left_i reduced mod D; the division is exact.
    """
    snf = smith_normal_form(gens)
    if snf.rank != len(gens):
        raise IntegrityError("parallelepiped generators are not independent")
    order = prod(snf.diagonal)
    steps = [tuple(order // d * x for x in row) for d, row in zip(snf.diagonal, snf.left)]
    points: set[Vec] = set()
    for y in product(*(range(d) for d in snf.diagonal)):
        c = [sum(yi * step[i] for yi, step in zip(y, steps)) % order for i in range(len(gens))]
        point = []
        for j in range(rank):
            q, r = divmod(sum(ci * g[j] for ci, g in zip(c, gens)), order)
            if r:
                raise IntegrityError("parallelepiped point is not a lattice point")
            point.append(q)
        points.add(tuple(point))
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
