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
semigroup generators with ``rho`` (1 unless sigma has lineality).  The
roots in a search window [-r, r]^n are the integer points of that
polyhedron inside the box.  They are found in lexicographic order by a
depth-first search over the coordinates that each condition prunes on
its own, so a search stops at the first root when only that is wanted.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import IntegrityError, NilpotencyCapError, PreconditionError
from .fan import Fan
from .lattice import Vec, add, determinant, neg, pairing, vector
from .semigroup import AffineSemigroup, AlgebraElement, boundary_projection

NILPOTENCY_CAP = 10_000
# largest window radius the degree search of build_ga_actions doubles up to
MAX_RADIUS = 48
# slice size above which a root search warns before it starts
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
    e = vector(degree)
    (rho, g), rows = _root_conditions(semigroup, _extremal_ray(semigroup, ray))
    return pairing(e, rho) == -g and all(pairing(e, a) + c >= 0 for a, c in rows)


def enumerate_roots(semigroup: AffineSemigroup, ray, radius: int) -> list[Vec]:
    """All admissible degrees in the box [-radius, radius]^rank, sorted.

    The full root set is infinite (it is stable under adding wall
    elements); the box is a finite window.  The roots come from a
    depth-first search that yields them in lexicographic order and
    prunes every coordinate by each root condition of :func:`is_root`,
    so the work follows the roots rather than the window.  A window
    whose slice on the hyperplane <e, ray> = -g has more than
    ``MAX_SLICE_POINTS`` points is announced by a warning before the
    search starts.  An empty result only means the window is too small,
    and a warning says so.
    """
    hits = list(_root_search(semigroup, ray, radius))
    if not hits:
        warnings.warn(
            "no derivation degrees found in the search box; increase the radius",
            RuntimeWarning,
            stacklevel=2,
        )
    return hits


def _root_search(semigroup: AffineSemigroup, ray, radius: int) -> Iterator[Vec]:
    """Check the arguments and warn about a huge window now; search lazily.

    Returns an iterator over the roots in the window, in lexicographic
    order.
    """
    if radius < 1:
        raise PreconditionError("radius must be at least 1")
    rho = _extremal_ray(semigroup, ray)
    size = (2 * radius + 1) ** (semigroup.rank - 1)
    if size > MAX_SLICE_POINTS:
        warnings.warn(
            f"the search window has {size} points on the root hyperplane; "
            "the walk will take long",
            RuntimeWarning,
            stacklevel=3,
        )
    equation, rows = _root_conditions(semigroup, rho)
    return _box_points_in_lex_order(equation, rows, radius)


def _root_conditions(semigroup: AffineSemigroup, rho: Vec):
    """The root conditions along an extremal ray: the equation (rho, g),
    <e, rho> + g = 0, and rows (a, c), <e, a> + c >= 0.

    Each <e, l> = 0 on the lineality gives two opposite rows, each other
    extremal ray one.
    """
    sigma = semigroup.cone.dual()
    g = gcd(*(pairing(m, rho) for m in semigroup.generators + semigroup.units))
    rows = [row for l in sigma.lineality for row in ((l, 0), (neg(l), 0))]
    return (rho, g), rows + [(r, 0) for r in sigma.rays if r != rho]


def _box_points_in_lex_order(equation, rows, radius: int) -> Iterator[Vec]:
    """The integer points e of [-radius, radius]^n with <e, a> + c = 0 for
    the equation (a, c) and <e, a> + c >= 0 for every row (a, c), in
    lexicographic order.

    The equation is bounded as two opposite rows.  First each row on its
    own narrows the interval of every coordinate, the others ranging over
    their intervals, in rounds until nothing narrows (at most n rounds).
    Then the search goes depth first over e_1, e_2, ...: with a prefix
    fixed, each row on its own bounds the next coordinate, the
    coordinates after it ranging over their intervals, and the next
    coordinate steps through the residues that leave the rest of the
    equation a multiple of the gcd of its later entries.  The prefix
    pairings are kept per row.  A leaf is kept only if it satisfies every
    row.
    """
    a0, c0 = equation
    rows = [equation, (neg(a0), -c0)] + list(rows)
    n = len(a0)
    lo, hi = [-radius] * n, [radius] * n
    for _ in range(n):
        narrowed = False
        for a, c in rows:
            # the largest value of the row on the intervals; narrowing a
            # coordinate leaves its own term's maximum where it is
            top = c + sum(x * hi[i] if x > 0 else x * lo[i] for i, x in enumerate(a))
            for i, x in enumerate(a):
                if x > 0 and hi[i] - top // x > lo[i]:
                    lo[i] = hi[i] - top // x
                    narrowed = True
                elif x < 0 and lo[i] + top // -x < hi[i]:
                    hi[i] = lo[i] + top // -x
                    narrowed = True
        if any(l > h for l, h in zip(lo, hi)):
            return iter(())
        if not narrowed:
            break

    columns = [tuple(a[k] for a, _ in rows) for k in range(n)]
    # slack[k][j]: the largest amount the coordinates after k add to row j;
    # modulus[k]: the gcd of the equation's entries after k
    slack, modulus = [()] * n, [0] * n
    tail, m = (0,) * len(rows), 0
    for k in reversed(range(n)):
        slack[k], modulus[k] = tail, m
        tail = tuple(
            t + (x * hi[k] if x > 0 else x * lo[k]) for t, x in zip(tail, columns[k])
        )
        m = gcd(m, a0[k])
    last = n - 1
    point = [0] * n

    def search(k, sums):
        column = columns[k]
        low, high = lo[k], hi[k]
        for x, s in zip(column, map(int.__add__, sums, slack[k])):
            if x > 0:
                if -(s // x) > low:
                    low = -(s // x)
            elif x < 0:
                if s // -x < high:
                    high = s // -x
            elif s < 0:
                return
        step = 1
        if modulus[k] > 1:
            # solve sums[0] + column[0] * x = 0 modulo modulus[k]
            d = gcd(column[0], modulus[k])
            if sums[0] % d:
                return
            step = modulus[k] // d
            first = -(sums[0] // d) * pow(column[0] // d, -1, step)
            low += (first - low) % step
        for x in range(low, high + 1, step):
            point[k] = x
            after = [s + a * x for s, a in zip(sums, column)]
            if k < last:
                yield from search(k + 1, after)
            elif min(after) >= 0:
                yield tuple(point)

    return search(0, [c for _, c in rows])


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


def build_ga_actions(fan: Fan, start_radius: int = 3) -> GaActionFamily:
    """Run the boundary-fixing construction on a quasi-affine fan.

    The decision and the ambient semigroup are those of
    ``Fan.quasi_affine_verdict``, so this runs exactly on the fans with
    rays, no torus factor and a passing verdict; the torus factor is read
    from the fan's kept splitting before the verdict builds any
    semigroup.  On such a fan the class group is trivial, so the rays are
    a lattice basis, sigma^v is the unimodular simplex on the dual basis
    and the ambient generators are that dual basis.  Steps: take the
    first extremal ray of the support cone as the distinguished one and
    the others as the boundary; take the lexicographically first
    admissible degree of the first window [-r, r]^n that has one, for
    r = start_radius, doubled up to ``MAX_RADIUS`` (the search of each
    window stops at its first root, see :func:`enumerate_roots`); take
    as generators of the wall semigroup orthogonal to the chosen ray the
    n - 1 dual-basis vectors that vanish on it; shift the degree by their
    sum, which is 1 on every boundary ray, and by that sum plus each of
    them, to get one derivation per ambient dimension with independent
    characters.  The boundary-annihilation property is verified on every
    generator before returning.

    A root always exists: minus the dual-basis vector that is 1 on the
    chosen ray is one.  When it lies outside every window searched, a
    ``PreconditionError`` names it and the radius that reaches it.
    """
    n = fan.ambient_rank
    if not fan.rays:
        raise PreconditionError("the fan of a torus admits no homogeneous additive actions")
    if fan.split_torus_factor().torus_rank:
        raise PreconditionError(
            "rays do not span the ambient space; split off the torus factor first"
        )
    verdict = fan.quasi_affine_verdict()
    sigma, all_faces = fan.support_cone()
    if not all_faces:
        raise PreconditionError(
            "input fan is not quasi-affine: some cone is not a face of the support cone"
        )
    if not verdict.quasi_affine:
        reason = f"input fan is not quasi-affine: failed step {verdict.failed_step}"
        if verdict.failed_step == "class_group":
            reason += f" (rank {verdict.class_rank}, torsion {list(verdict.class_torsion)})"
        raise PreconditionError(reason)

    # the extremal rays of the cone over primitive rays are among those rays
    chosen, boundary = sigma.rays[0], sigma.rays[1:]
    semis = verdict.ambient
    assert not semis.units

    radius = start_radius
    degree = next(_root_search(semis, chosen, radius), None)
    while degree is None:
        if radius >= MAX_RADIUS:
            root = neg(next(g for g in semis.generators if pairing(g, chosen) == 1))
            reach = max(map(abs, root))
            raise PreconditionError(
                f"no admissible degree within radius {radius}; {list(root)} is "
                f"one within radius {reach} (rerun with --radius {reach})"
            )
        radius *= 2
        degree = next(_root_search(semis, chosen, radius), None)

    # the wall generators: the n - 1 dual-basis vectors that vanish on the chosen ray
    wall_gens = tuple(g for g in semis.generators if pairing(g, chosen) == 0)
    base = tuple(sum(g[j] for g in wall_gens) for j in range(n))
    for rho in boundary:
        if pairing(base, rho) <= 0:
            raise IntegrityError(
                f"wall generator sum is not positive on boundary ray {rho}"
            )

    shifts = [add(base, h) for h in wall_gens] + [base]
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
