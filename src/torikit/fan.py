"""Fans of strongly convex cones and the invariants of their toric varieties.

A fan is stored by its maximal cones.  The module computes the support
cone, divisor class group, Euler characteristic and torus-factor
splitting of the associated toric variety, and a verdict on it.

The variety is quasi-affine exactly when sigma = cone(|fan|) is strongly
convex and every cone is a face of sigma (Cox, Little, Schenck, 3.3).
That is the flag ``every_cone_is_face`` of :meth:`Fan.support_cone`, as
no strongly convex cone is a face of a sigma with lineality; validation
reads it too.  The verdict decides more: smooth and open in A^m x T^k,
with a trivial class group once the torus factor is split off.  The
smooth fans with rays (1, 0), (1, 2) and with rays (1, 0, 1), (0, 1, 1),
(-1, 0, 1), (0, -1, 1), each ray a cone of its own, are quasi-affine, but
their class groups are Z/2 and Z + Z/2, so the verdict fails at
``class_group`` for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from operator import mul
from typing import NamedTuple, Optional

from .cone import Cone, _incidence
from .errors import DimensionError, IntegrityError, NotAFanError, PreconditionError
from .lattice import (
    Vec,
    hermite_coordinates,
    pairing,
    saturated_span,
    smith_normal_form,
)
from .semigroup import AffineSemigroup, fan_coordinate_semigroup


class SupportCone(NamedTuple):
    cone: Cone
    every_cone_is_face: bool


class ClassGroup(NamedTuple):
    rank: int
    torsion: tuple[int, ...]


class TorusSplit(NamedTuple):
    reduced_fan: "Fan"
    torus_rank: int
    sublattice_basis: tuple[Vec, ...]


class FixedPointWitness(NamedTuple):
    applicable: bool
    fixed_cones: tuple[Cone, ...]


@dataclass(frozen=True)
class QuasiAffineVerdict:
    """Whether the smooth toric variety is open in A^m x T^k.

    ``quasi_affine`` is true when the fan is smooth and its class group,
    after the torus factor is split off, is trivial.  This is sufficient
    for quasi-affineness, not necessary; see the module docstring for two
    quasi-affine fans that fail at ``class_group``.
    """

    quasi_affine: bool
    failed_step: Optional[str]          # None, "smoothness" or "class_group"
    detail: Optional[str]
    torus_rank: int
    class_rank: Optional[int]
    class_torsion: Optional[tuple[int, ...]]
    ambient: Optional[AffineSemigroup]  # coordinate semigroup of the affine hull


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    complete: bool
    edge_count: int
    class_rank: int
    class_torsion: tuple[int, ...]
    euler_characteristic: int
    torus_rank: int
    verdict: QuasiAffineVerdict


class Fan:
    """A face-closed, intersection-compatible collection of strongly convex cones.

    Only the maximal cones (those that are not a proper face of another
    cone), sorted by (dimension, rays), are kept from validation; every
    face-lattice query is answered from them.  The support cone, the
    facet walls and the torus-factor splitting are built on first use and
    kept.
    """

    __slots__ = ("ambient_rank", "rays", "_maximal", "_support", "_walls", "_split")

    def __init__(self, ambient_rank: int, rays: tuple[Vec, ...], maximal: tuple[Cone, ...]):
        self.ambient_rank = ambient_rank
        self.rays = rays
        self._maximal = maximal
        self._support: SupportCone | None = None
        self._walls: dict[frozenset, list[tuple[Vec, Cone]]] | None = None
        self._split: TorusSplit | None = None

    @classmethod
    def from_cones(cls, cones, ambient_rank: int | None = None) -> "Fan":
        """Validate a raw cone list into a fan.

        The fan is the face closure of the input, kept as its maximal
        cones (those that are not a face of another input cone) without
        building any face; an empty list gives the zero cone.  The
        intersection check runs on the maximal cones only: when two cones
        meet in a common face, so does every face of one with every face
        of the other.  An input cone that lies inside another without
        being one of its faces is maximal, so it is checked too.

        Two certificates can accept two or more maximal cones at once,
        without looking at pairs; they never reject.  B is tried first, so
        that a complete simplicial fan never builds its support cone.

        A. *Subfan of a strongly convex support cone*.  When every maximal
        cone is a face of sigma = cone(all rays), the quasi-affineness flag
        of :meth:`support_cone`, faces of one cone meet in a common face.
        sigma and the flag are kept on the fan.

        B. *Complete simplicial pseudo-manifold* (:func:`_pseudo_manifold`).
        Let n >= 2.  Suppose every maximal cone is full-dimensional and
        simplicial, every facet of one is a facet of exactly one other,
        the two lying on opposite sides of it, and the sum p of the rays
        of the first maximal cone lies in no other maximal cone.  Then
        the cones form a complete fan, by a local-degree argument (De
        Loera, Rambau, Santos, Triangulations, chapter 4):

        - Let N(x) count the maximal cones whose interior contains x.
          Take x on no face of dimension <= n - 2.  A cone that contains
          x has it in its interior or in the relative interior of one
          facet, and the other cone on that facet covers the far side
          near x.  So N is locally constant off the union of the faces of
          dimension <= n - 2.  That union has codimension 2, so its
          complement is connected and N takes one value d there.  Near p
          only the first cone is met, so d = 1.
        - Let z be any point and C a face of a maximal cone with z in
          relint C.  Near z, a cone with C as a face is bounded only by
          its facets through C, and the other cone on such a facet has C
          as a face too.  So the count of the cones with C as a face is
          constant near z (off codimension 2), and it is at least 1.
          Cones with different such faces C are different cones, so with
          d = 1 every z lies in the relative interior of exactly one face
          of the maximal cones.
        - Take z in the relative interior of the intersection of two
          maximal cones sigma and tau, and G the face of sigma with z in
          relint G; G is a face of tau too.  A face of sigma that contains
          an interior point of a segment in sigma contains the segment,
          so the intersection is G.

        Maximal cones that neither certificate accepts go through the pair
        loop.  A pair is first offered to a separating functional
        (:func:`_separated`), with each maximal cone's normal-to-ray
        incidence computed once; a pair it does not certify has its
        intersection computed and is rejected unless that is a face of
        both.  Every rejection therefore comes from the pair loop.
        """
        cones = list(cones)
        if ambient_rank is None:
            if not cones:
                raise DimensionError("ambient rank required for an empty cone list")
            ambient_rank = cones[0].ambient_rank
        for c in cones:
            if c.ambient_rank != ambient_rank:
                raise DimensionError("cones have mixed ambient ranks")
            if not c.is_strongly_convex():
                raise NotAFanError(f"cone {c!r} is not strongly convex")
        return cls._of_cones(cones, ambient_rank)

    @classmethod
    def _of_cones(cls, cones, ambient_rank: int, sigma: Cone | None = None) -> "Fan":
        """:meth:`from_cones` on strongly convex cones of the given rank.

        ``sigma``, when given, is cone(all rays), already built: it is kept
        as the support cone, so that certificate A does not build it again.
        """
        if not cones:
            cones = [Cone.zero(ambient_rank)]
        listed = sorted(set(cones), key=lambda c: (c.dim(), c.rays))
        # strongly convex cones are equal when their rays are, so a proper
        # face has a strictly smaller ray set: each cone is compared only
        # with the cones that have more rays, and cones that all have one
        # count, as the maximal cones of a complete simplicial fan do, are
        # all maximal
        by_count: dict[int, list[Cone]] = {}
        for c in listed:
            by_count.setdefault(len(c.rays), []).append(c)
        maximal = listed
        if len(by_count) > 1:
            ray_sets = {c: frozenset(c.rays) for c in listed}
            maximal = [
                c for c in listed
                if not any(ray_sets[c] < ray_sets[d] and c.is_face_of(d)
                           for count, larger in by_count.items() if count > len(c.rays)
                           for d in larger)
            ]
        rays = tuple(sorted({r for c in maximal for r in c.rays}))
        fan = cls(ambient_rank, rays, tuple(maximal))
        if sigma is not None:
            fan._keep_support(sigma)
        if not (len(maximal) < 2 or _pseudo_manifold(fan)
                or fan.support_cone().every_cone_is_face):
            _check_pairs(maximal)
        return fan

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.ambient_rank == other.ambient_rank
            and self._maximal == other._maximal
        )

    def __repr__(self):
        maximal = len(self._maximal)
        return f"Fan(rank={self.ambient_rank}, maximal={maximal}, rays={list(self.rays)})"

    # -- basic invariants -------------------------------------------------

    def maximal_cones(self) -> tuple[Cone, ...]:
        return self._maximal

    def support_cone(self) -> SupportCone:
        """Cone sigma spanned by all rays, and whether every fan cone is a face of it.

        The flag is the quasi-affineness criterion of the module docstring,
        and certificate A of :meth:`from_cones`.  Faces of a face are faces,
        so the maximal cones decide it.  Built once per fan; a fan with one
        maximal cone takes that cone as sigma, and a fan validated from a
        document with at most rank rays keeps the sigma the document built
        (:func:`torikit.cli.fan_from_document`).
        """
        if self._support is None:
            if len(self._maximal) == 1:
                # cone(all rays) is that cone, already canonical
                self._keep_support(self._maximal[0])
            else:
                self._keep_support(Cone.from_rays(self.rays, self.ambient_rank))
        return self._support

    def _keep_support(self, sigma: Cone) -> None:
        """Keep sigma = cone(all rays) as the support cone, with its flag.
        A maximal cone that is sigma itself is a face of it untested."""
        self._support = SupportCone(sigma, all(c is sigma or c.is_face_of(sigma)
                                               for c in self._maximal))

    def euler_characteristic(self) -> int:
        """Number of cones of full dimension.

        Orbits of lower-dimensional cones carry torus factors and
        contribute zero to the additive decomposition, so only the
        zero-dimensional orbits count.
        """
        return len(self._full_cones())

    def _full_cones(self) -> tuple[Cone, ...]:
        # a full-dimensional cone is a face only of itself, so it is maximal
        return tuple(c for c in self._maximal if c.dim() == self.ambient_rank)

    def is_smooth(self) -> bool:
        """Whether every cone is smooth; faces of smooth cones are smooth."""
        return all(c.is_smooth() for c in self._maximal)

    def is_complete(self) -> bool:
        """Whether the cones cover the whole ambient space.

        Criterion: some cone is full-dimensional, every cone is a face
        of a full-dimensional one (every maximal cone is
        full-dimensional), and every codimension-one cone is a facet of
        exactly two full-dimensional cones.  The facets of a
        full-dimensional cone are read off its facet normals by their
        ray sets, and a cone is determined by its rays; every
        codimension-one cone is then a facet of a full one, so it is counted.
        """
        full = self._full_cones()
        if not full or len(full) != len(self._maximal):
            return False
        return all(len(sides) == 2 for sides in self._facet_walls().values())

    def _facet_walls(self) -> dict[frozenset, list[tuple[Vec, Cone]]]:
        """Each maximal cone's facets by ray set, with their (normal, cone) pairs; kept."""
        if self._walls is None:
            self._walls = {}
            for c in self._maximal:
                for a, zeros in _incidence(c):
                    self._walls.setdefault(zeros, []).append((a, c))
        return self._walls

    # -- class group and torus factors -------------------------------------

    def class_group(self) -> ClassGroup:
        """Cokernel of the restriction of characters to the rays.

        The free rank is (number of rays) - (ambient rank); nontrivial
        invariant factors are reported as torsion.  When a cone the fan
        keeps is a unimodular full-dimensional simplex, the rays contain a
        lattice basis, so 0 -> M -> Z^rays -> Cl -> 0 splits and the group
        is free (Cox, Little, Schenck, Theorem 4.1.3): no Smith form is
        needed.  Its kept facet pairs decide it.  The cones tried are the
        maximal ones and, when there are as many rays as the ambient rank,
        the support cone: the simplex on the rays when they are independent.
        """
        n = self.ambient_rank
        if any(c._is_unimodular_simplex() for c in self._maximal) or (
                len(self.rays) == n and self.support_cone().cone._is_unimodular_simplex()):
            return ClassGroup(len(self.rays) - n, ())
        snf = smith_normal_form(self.rays)
        if snf.rank != n:
            raise PreconditionError(
                "rays do not span the ambient space; split off the torus factor first"
            )
        torsion = tuple(x for x in snf.diagonal if x > 1)
        return ClassGroup(len(self.rays) - snf.rank, torsion)

    def split_torus_factor(self) -> TorusSplit:
        """Re-express the fan inside the saturated span of its rays.

        The toric variety is the product of the reduced fan's variety
        with a torus whose rank is the returned ``torus_rank``.  Built
        once per fan.  The coordinates on the span are a lattice
        isomorphism onto it, so the images of the maximal cones are the
        maximal cones of a fan, which is not validated again.  When a
        maximal cone or the kept support cone is full-dimensional, the rays
        span, and the saturation of a full-rank lattice is Z^n: the basis
        is the identity, with no rank taken.
        """
        if self._split is None:
            n, support = self.ambient_rank, self._support
            if self._full_cones() or (support is not None and support.cone.dim() == n):
                basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            else:
                basis = saturated_span(self.rays)
            k = n - len(basis)
            if k == 0:
                self._split = TorusSplit(self, 0, basis)
            else:
                mapped = sorted(
                    (Cone.from_rays([hermite_coordinates(basis, r) for r in c.rays], len(basis))
                     for c in self._maximal),
                    key=lambda c: (c.dim(), c.rays),
                )
                rays = tuple(sorted({r for c in mapped for r in c.rays}))
                self._split = TorusSplit(Fan(len(basis), rays, tuple(mapped)), k, basis)
        return self._split

    # -- the quasi-affine pipeline ------------------------------------------

    def quasi_affine_verdict(self) -> QuasiAffineVerdict:
        """Decide whether the toric variety is smooth and open in A^m x T^k.

        This is the verdict of :meth:`report`, the one place it is decided.
        """
        return self.report().verdict

    def report(self) -> FanReport:
        """The invariants of the fan and the verdict on its toric variety.

        This is the only code that decides the verdict: whether the variety
        is smooth and open in A^m x T^k, which is sufficient for
        quasi-affineness (see the module docstring).  Pipeline: split off
        torus factors, require all cones smooth, then require a trivial
        class group on the reduced fan.  The reduced fan is smooth exactly
        when this one is: the saturated span of the rays is a direct
        summand of the lattice.  A trivial class group makes the rays a
        lattice basis of that span, so every cone is smooth and no cone is
        tested; every cone is then a face of the simplicial support cone,
        which is checked as an invariant.  Otherwise the singular maximal
        cones are listed once, for ``smooth`` and the verdict's singular
        face, the first of their faces in (dimension, rays) order that is
        not smooth.  On success the coordinate semigroup of the ambient
        affine variety is attached.
        """
        reduced, k, _ = self.split_torus_factor()
        cg = reduced.class_group()
        trivial = not (cg.rank or cg.torsion)
        singular = [] if trivial else [m for m in reduced._maximal if not m.is_smooth()]
        if singular:
            # a singular face lies only in singular maximal cones; their sorted faces merge
            faces = merge(*(m.faces() for m in singular), key=lambda f: (f.dim(), f.rays))
            c = next(f for f in faces if not f.is_smooth())
            detail = f"cone {c!r} is singular"
            verdict = QuasiAffineVerdict(False, "smoothness", detail, k, None, None, None)
        elif not trivial:
            detail = f"class group has rank {cg.rank} and torsion {list(cg.torsion)}"
            verdict = QuasiAffineVerdict(False, "class_group", detail, k, *cg, None)
        elif not self.support_cone().every_cone_is_face:
            raise IntegrityError(
                "a smooth fan with trivial class group has a cone that is not "
                "a face of its support cone"
            )
        else:
            verdict = QuasiAffineVerdict(True, None, None, k, *cg, fan_coordinate_semigroup(self))
        return FanReport(
            smooth=not singular,
            complete=self.is_complete(),
            edge_count=len(self.rays),
            class_rank=cg.rank,
            class_torsion=cg.torsion,
            euler_characteristic=self.euler_characteristic(),
            torus_rank=k,
            verdict=verdict,
        )

    # -- fixed points of finite subgroups ------------------------------------

    def fixed_point_witness(self, p: int) -> FixedPointWitness:
        """Witness cones for fixed points of a p-group inside the torus.

        When p does not divide the Euler characteristic, the torus-fixed
        points (one per full-dimensional cone) are returned; there is
        always at least one because the characteristic is then nonzero.
        When p divides it, the criterion gives no information.
        """
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        chi = self.euler_characteristic()
        if chi % p == 0:
            return FixedPointWitness(False, ())
        return FixedPointWitness(True, self._full_cones())


def _check_pairs(maximal) -> None:
    """Raise NotAFanError unless every pair of maximal cones meets in a common face."""
    incidences = [_incidence(c) for c in maximal]
    for i, sigma in enumerate(maximal):
        for j in range(i + 1, len(maximal)):
            tau = maximal[j]
            if _separated(sigma, tau, (incidences[i], incidences[j])):
                continue
            meet = sigma.intersect(tau)
            if not (meet.is_face_of(sigma) and meet.is_face_of(tau)):
                raise NotAFanError(
                    f"not a fan: maximal cones {sigma!r} and {tau!r} "
                    "do not intersect in a common face"
                )


def _pseudo_manifold(fan: Fan) -> bool:
    """Whether the maximal cones pass certificate B of :meth:`Fan.from_cones`.

    For a full-dimensional simplicial cone each facet normal vanishes on
    all rays but the opposite one, so a normal of one cone pairs with the
    other cone on the same facet as with that cone's opposite ray, and
    the pairing with the sum of its rays gives it.  Such a cone has no span
    equations, so its kept normals decide whether it holds the first cone's
    ray sum.  False proves nothing.
    """
    rank, maximal = fan.ambient_rank, fan.maximal_cones()
    if rank < 2 or not all(c.is_simplex() and c.dim() == rank for c in maximal):
        return False
    ray_sums = {c: tuple(map(sum, zip(*c.rays))) for c in maximal}
    for sides in fan._facet_walls().values():
        if len(sides) != 2:
            return False
        (a, _), (_, other) = sides
        if sum(map(mul, a, ray_sums[other])) >= 0:
            return False
    p = ray_sums[maximal[0]]
    return not any(all(sum(map(mul, a, p)) >= 0 for a, _ in c._facet_pairs()) for c in maximal[1:])


def _separated(sigma: Cone, tau: Cone, incidences) -> bool:
    """Whether a separating functional shows that sigma and tau meet in a common face.

    Let C be the rays the two cones share and u_s, u_t the sums of the
    facet normals of sigma and tau that vanish on C.  The pair is
    certified when some x > 0 makes u = u_s - x * u_t positive on the
    rays of sigma off C and negative on the rays of tau off C.  Then
    sigma lies in u >= 0 and tau in u <= 0, and u vanishes on each of
    them exactly on cone(C), so sigma meets tau in cone(C), a face of
    both (Fulton, Introduction to Toric Varieties, section 1.2).  This
    holds for any u that vanishes on C; the sums of normals are a
    choice that certifies most pairs of a fan.  A False answer proves
    nothing.

    Every ray off C bounds x through p - x * q > 0 with p, q the
    pairings of the ray with u_s and u_t (both negated on tau's side),
    so x ranges over an open interval whose ends are compared exactly
    by cross-multiplying.  ``incidences`` are the :func:`_incidence` of
    sigma and tau.
    """
    inc_s, inc_t = incidences
    common = set(sigma.rays) & set(tau.rays)
    u_s = _normal_sum(inc_s, common, sigma.ambient_rank)
    u_t = _normal_sum(inc_t, common, tau.ambient_rank)
    low, low_den = 0, 1            # x > low / low_den
    high, high_den = 1, 0          # x < high / high_den; a zero denominator is +infinity
    for rays, sign in ((sigma.rays, 1), (tau.rays, -1)):
        for r in rays:
            if r in common:
                continue
            p = sign * pairing(u_s, r)
            q = sign * pairing(u_t, r)
            if q > 0:
                if p * high_den < high * q:
                    high, high_den = p, q
            elif q < 0:
                if -p * low_den > low * -q:
                    low, low_den = -p, -q
            elif p <= 0:
                return False
    return high_den == 0 or low * high_den < high * low_den


def _normal_sum(incidence, rays, rank: int) -> Vec:
    """The sum of the facet normals, from a cone's incidence, that vanish on the given rays."""
    total = [0] * rank
    for a, zeros in incidence:
        if zeros >= rays:
            total = [x + y for x, y in zip(total, a)]
    return tuple(total)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True
