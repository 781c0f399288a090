"""Homogeneous locally nilpotent derivations of toric coordinate rings.

For an extremal ray ``rho`` of the cone describing the affine hull and a
degree ``e`` in the corresponding root set, the derivation sends the
monomial with exponent ``m`` to ``<m, rho>`` times the monomial with
exponent ``e + m``.  Exponentiating such a derivation gives a
one-parameter additive group action; this module also assembles, for a
quasi-affine fan, a full-rank family of such actions that fix the
boundary divisors.

Root sets come from the halfspace description of the dual cone sigma
(Demazure; Liendo): ``e`` is a root along ``rho`` exactly when
<e, rho> = -g, <e, r> >= 0 on the other extremal rays of sigma and
<e, l> = 0 on its lineality, where g is the gcd of the pairings of the
semigroup generators with ``rho`` (1 unless sigma has lineality).  A
search window [-r, r]^n is therefore listed by walking its slice on the
hyperplane <e, rho> = -g, at a cost of (2r + 1)^(n - 1) integer checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

from .cone import orthogonal_face
from .errors import IntegrityError, NilpotencyCapError, PreconditionError
from .fan import Fan
from .lattice import Vec, add, determinant, matrix_rank, pairing, vector
from .semigroup import (
    AffineSemigroup,
    AlgebraElement,
    boundary_projection,
    hilbert_basis,
)

NILPOTENCY_CAP = 10_000
# slice size above which enumerate_roots warns before walking
MAX_SLICE_POINTS = 10**7


def is_root(semigroup: AffineSemigroup, ray, degree) -> bool:
    """Whether ``degree`` is an admissible derivation degree along ``ray``.

    An admissible degree e lies outside the semigroup while e + m stays
    inside for every element m off the wall orthogonal to the ray.  Let
    sigma be the cone dual to the semigroup's cone and g the gcd of the
    pairings of the semigroup's generators with the ray.  Then e is
    admissible exactly when <e, ray> = -g, <e, r> >= 0 for every other
    extremal ray r of sigma and <e, l> = 0 for every l in the lineality
    of sigma.  g is 1 when sigma is pointed; with lineality the ray need
    not be primitive on the span of the semigroup, and g can exceed 1.
    """
    rho = _extremal_ray(semigroup, ray)
    e = vector(degree)
    target, others, equations = _root_conditions(semigroup, rho)
    return pairing(e, rho) == target and _off_the_ray_conditions(e, others, equations)


def enumerate_roots(semigroup: AffineSemigroup, ray, radius: int) -> list[Vec]:
    """All admissible degrees in the box [-radius, radius]^rank, sorted.

    The full root set is infinite (it is stable under adding wall
    elements); the box is a finite window.  Only the slice of the box
    on the hyperplane <e, ray> = -g is walked (see :func:`is_root`): the
    last coordinate with a nonzero ray entry is solved for, so a window
    costs (2 * radius + 1)^(rank - 1) integer checks.  A slice of more
    than ``MAX_SLICE_POINTS`` points is announced by a warning before
    the walk starts.  An empty result only means the window is too
    small, and a warning says so.
    """
    if radius < 1:
        raise PreconditionError("radius must be at least 1")
    rho = _extremal_ray(semigroup, ray)
    n = semigroup.rank
    size = (2 * radius + 1) ** (n - 1)
    if size > MAX_SLICE_POINTS:
        warnings.warn(
            f"the search window has {size} points on the root hyperplane; "
            "the walk will take long",
            RuntimeWarning,
            stacklevel=2,
        )
    target, others, equations = _root_conditions(semigroup, rho)
    j = max(i for i, x in enumerate(rho) if x)
    coefficients = rho[:j] + rho[j + 1:]
    hits = []
    for free in product(range(-radius, radius + 1), repeat=n - 1):
        q, r = divmod(target - sum(a * b for a, b in zip(free, coefficients)), rho[j])
        if r or not -radius <= q <= radius:
            continue
        e = free[:j] + (q,) + free[j:]
        if _off_the_ray_conditions(e, others, equations):
            hits.append(e)
    if not hits:
        warnings.warn(
            "no derivation degrees found in the search box; increase the radius",
            RuntimeWarning,
            stacklevel=2,
        )
    return sorted(hits)


def _root_conditions(semigroup: AffineSemigroup, rho: Vec):
    """The closed-form root test along an extremal ray: (-g, other rays, lineality)."""
    sigma = semigroup.cone.dual()
    g = gcd(*(pairing(m, rho) for m in semigroup.generators + semigroup.units))
    return -g, tuple(r for r in sigma.rays if r != rho), sigma.lineality


def _off_the_ray_conditions(e: Vec, others, equations) -> bool:
    return all(pairing(e, r) >= 0 for r in others) and all(
        pairing(e, l) == 0 for l in equations
    )


def _extremal_ray(semigroup: AffineSemigroup, ray) -> Vec:
    rho = vector(ray)
    sigma = semigroup.cone.dual()
    if rho not in sigma.rays:
        raise PreconditionError(
            f"{rho} is not an extremal ray of the cone dual to the semigroup"
        )
    return rho


@dataclass(frozen=True)
class HomogeneousDerivation:
    """A homogeneous locally nilpotent derivation of a toric coordinate ring.

    ``ray`` is a primitive extremal ray of the cone dual to the ambient
    semigroup's cone and ``degree`` an admissible degree along it; both
    are validated on construction.  The pairing of the degree with the
    ray is recorded but no specific value is assumed.
    """

    ray: Vec
    degree: Vec
    ambient: AffineSemigroup = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ray", vector(self.ray))
        object.__setattr__(self, "degree", vector(self.degree))
        if not is_root(self.ambient, self.ray, self.degree):
            raise PreconditionError(
                f"{self.degree} is not an admissible degree along {self.ray}"
            )

    @property
    def ray_pairing(self) -> int:
        return pairing(self.degree, self.ray)

    def __call__(self, element: AlgebraElement) -> AlgebraElement:
        """Apply the derivation termwise.

        Each monomial exponent m contributes <m, ray> times the monomial
        at m + degree; exponents on the wall are killed.  Surviving
        exponents must land back in the semigroup, which is guaranteed
        for regular inputs and enforced here.
        """
        out = {}
        for m, c in element.terms():
            w = pairing(m, self.ray)
            if w == 0:
                continue
            shifted = add(self.degree, m)
            if not self.ambient.contains(shifted):
                raise IntegrityError(
                    f"derivation left the coordinate ring at exponent {m}"
                )
            out[shifted] = out.get(shifted, Fraction(0)) + c * w
        return AlgebraElement(out)

    apply = __call__

    def nilpotency_order(self, exponent, cap: int = NILPOTENCY_CAP) -> int:
        """Smallest k with the k-th derivative of the monomial equal to zero."""
        if cap < 1:
            raise PreconditionError("cap must be at least 1")
        m = vector(exponent)
        if not self.ambient.contains(m):
            raise PreconditionError(f"{m} is not in the ambient semigroup")
        current = AlgebraElement.monomial(m)
        for k in range(1, cap + 1):
            current = self(current)
            if current.is_zero():
                return k
        raise NilpotencyCapError(
            f"monomial {m} not annihilated within {cap} applications"
        )

    def exponentiate(self, time, element: AlgebraElement) -> AlgebraElement:
        """Image of an element under the time-``time`` flow of the derivation.

        The exponential series is finite by local nilpotency; at each
        time it is a ring automorphism, and time 0 is the identity.
        """
        s = Fraction(time)
        result = element
        term = element
        factorial = 1
        k = 0
        while True:
            term = self(term)
            if term.is_zero():
                return result
            k += 1
            factorial *= k
            result = result + (s**k / factorial) * term
            if k > NILPOTENCY_CAP:
                raise NilpotencyCapError("exponential series did not terminate")


@dataclass(frozen=True)
class GaActionFamily:
    """A full-rank family of boundary-fixing additive group actions.

    All derivations share one chosen ray; their degrees are the
    characters through which the torus acts on the one-parameter
    subgroups, and they are linearly independent.
    """

    derivations: tuple[HomogeneousDerivation, ...]
    characters: tuple[Vec, ...]
    chosen_ray: Vec
    boundary_rays: tuple[Vec, ...]
    root_degree: Vec
    wall_generators: tuple[Vec, ...]
    semigroup: AffineSemigroup
    character_determinant: int


def build_ga_actions(fan: Fan, start_radius: int = 3, max_radius: int = 48) -> GaActionFamily:
    """Run the boundary-fixing construction on a quasi-affine fan.

    Steps: certify every fan cone is a face of the support cone, then
    require the verdict's conditions, all cones smooth and a trivial
    class group, so that this agrees with ``Fan.quasi_affine_verdict``;
    take the lexicographically first ray as the distinguished one and the
    remaining extremal rays as the boundary; take the lexicographically
    first admissible degree of the first window [-r, r]^n that has one,
    for r = start_radius, doubled up to max_radius (each window walks
    its (2r + 1)^(n - 1) slice, see :func:`enumerate_roots`); build the
    wall semigroup orthogonal to the chosen ray; shift the degree by wall
    elements that are positive on every boundary ray to get one
    derivation per ambient dimension with independent characters.  The
    boundary-annihilation property is verified on every generator before
    returning.
    """
    n = fan.ambient_rank
    if not fan.rays:
        raise PreconditionError("the fan of a torus admits no homogeneous additive actions")
    if matrix_rank(fan.rays) != n:
        raise PreconditionError(
            "rays do not span the ambient space; split off the torus factor first"
        )
    sigma, all_faces = fan.support_cone()
    if not all_faces:
        raise PreconditionError(
            "input fan is not quasi-affine: some cone is not a face of the support cone"
        )
    if not fan.is_smooth():
        raise PreconditionError("input fan is not quasi-affine: failed step smoothness")
    cg = fan.class_group()
    if cg.rank or cg.torsion:
        raise PreconditionError(
            "input fan is not quasi-affine: failed step class_group "
            f"(rank {cg.rank}, torsion {list(cg.torsion)})"
        )
    assert sigma.is_strongly_convex()

    chosen = next((r for r in sigma.rays if r in fan.rays), None)
    if chosen is None:
        raise IntegrityError("support cone has no extremal ray among the fan rays")
    boundary = tuple(r for r in sigma.rays if r != chosen)

    semis = hilbert_basis(sigma.dual())
    assert not semis.units

    degree = None
    radius = start_radius
    while True:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="no derivation degrees found", category=RuntimeWarning
            )
            roots = enumerate_roots(semis, chosen, radius)
        if roots:
            degree = roots[0]
            break
        if radius >= max_radius:
            raise IntegrityError(
                f"no admissible degree within radius {max_radius}; "
                "this contradicts nonemptiness of the root set"
            )
        radius *= 2

    wall = hilbert_basis(orthogonal_face(chosen, sigma.dual()))
    assert not wall.units
    wall_gens = wall.generators
    base = tuple(sum(g[j] for g in wall_gens) for j in range(n)) if wall_gens else (0,) * n
    for rho in boundary:
        if pairing(base, rho) <= 0:
            raise IntegrityError(
                f"wall generator sum is not positive on boundary ray {rho}"
            )

    independent: list[Vec] = []
    for h in wall_gens:
        if matrix_rank(independent + [h]) > len(independent):
            independent.append(h)
        if len(independent) == n - 1:
            break
    if len(independent) != n - 1:
        raise IntegrityError(
            "wall semigroup does not span a hyperplane; cannot happen for a "
            "full-dimensional strongly convex support cone"
        )

    shifts = [add(base, h) for h in independent] + [base]
    characters = tuple(add(degree, s) for s in shifts)
    det = determinant(characters)
    if det == 0:
        raise IntegrityError("character matrix is singular")
    derivations = tuple(
        HomogeneousDerivation(chosen, chi, semis) for chi in characters
    )

    for d in derivations:
        for m in semis.generators:
            image = d(AlgebraElement.monomial(m))
            for rho in boundary:
                if not boundary_projection(rho, semis, image).is_zero():
                    raise IntegrityError(
                        f"derivation of degree {d.degree} does not fix the "
                        f"boundary divisor of ray {rho}"
                    )

    return GaActionFamily(
        derivations=derivations,
        characters=characters,
        chosen_ray=chosen,
        boundary_rays=boundary,
        root_degree=degree,
        wall_generators=wall_gens,
        semigroup=semis,
        character_determinant=det,
    )
