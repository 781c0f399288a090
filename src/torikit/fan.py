"""Fans of strongly convex cones and the invariants of their toric varieties.

A fan is stored face-closed.  The module computes the support cone,
divisor class group, Euler characteristic and torus-factor splitting of
the associated toric variety, and a verdict on it.

The verdict decides whether the variety is smooth and open in
A^m x T^k: smooth, with a trivial class group once the torus factor is
split off.  That implies quasi-affine but is not implied by it.  The
variety is quasi-affine exactly when the cone over the support of the
fan is strongly convex and every cone of the fan is one of its faces
(it is then open in the affine variety of that cone).  The smooth fans
with rays (1, 0), (1, 2) and with rays (1, 0, 1), (0, 1, 1), (-1, 0, 1),
(0, -1, 1), each ray a cone of its own, are quasi-affine, but their
class groups are Z/2 and Z + Z/2, so the verdict fails at
``class_group`` for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cone import Cone
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

    The maximal cones (those that are not a proper face of another
    cone), sorted by (dimension, rays), are kept from validation; every
    face-lattice query is answered from them.  The support cone is
    built on first use and kept.
    """

    __slots__ = ("ambient_rank", "cones", "rays", "_maximal", "_support")

    def __init__(
        self,
        ambient_rank: int,
        cones: tuple[Cone, ...],
        rays: tuple[Vec, ...],
        maximal: tuple[Cone, ...],
    ):
        self.ambient_rank = ambient_rank
        self.cones = cones
        self.rays = rays
        self._maximal = maximal
        self._support: SupportCone | None = None

    @classmethod
    def from_cones(cls, cones, ambient_rank: int | None = None) -> "Fan":
        """Validate a raw cone list into a fan.

        The input is closed under faces and deduplicated; listing only
        maximal cones therefore suffices.  The intersection check runs
        on pairs of maximal input cones (those that are not a face of
        another input cone) only: when two cones meet in a common face,
        so does every face of one with every face of the other.  A pair
        is first offered to a separating functional
        (:func:`_separated`), with each maximal cone's normal-to-ray
        incidence computed once; a pair it does not certify has its
        intersection computed and is rejected unless that is a face of
        both.  An input cone that lies inside another without being one
        of its faces is maximal, so it is checked too.
        """
        cones = list(cones)
        if ambient_rank is None:
            if not cones:
                raise DimensionError("ambient rank required for an empty cone list")
            ambient_rank = cones[0].ambient_rank
        closure: dict[tuple, Cone] = {}
        for c in cones:
            if c.ambient_rank != ambient_rank:
                raise DimensionError("cones have mixed ambient ranks")
            if not c.is_strongly_convex():
                raise NotAFanError(f"cone {c!r} is not strongly convex")
            for f in c.faces():
                closure[f.key()] = f
        if not closure:
            zero = Cone.zero(ambient_rank)
            closure[zero.key()] = zero
            cones = [zero]
        ordered = sorted(closure.values(), key=lambda c: (c.dim(), c.rays))
        listed = sorted(set(cones), key=lambda c: (c.dim(), c.rays))
        # strongly convex cones are equal when their rays are, so a proper
        # face has a strictly smaller ray set
        ray_sets = {c: frozenset(c.rays) for c in listed}
        maximal = [
            c for c in listed
            if not any(ray_sets[c] < ray_sets[d] and c.is_face_of(d) for d in listed)
        ]
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
        rays = tuple(sorted(c.rays[0] for c in ordered if c.dim() == 1))
        return cls(ambient_rank, tuple(ordered), rays, tuple(maximal))

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.ambient_rank == other.ambient_rank
            and self.cones == other.cones
        )

    def __repr__(self):
        return f"Fan(rank={self.ambient_rank}, cones={len(self.cones)}, rays={list(self.rays)})"

    # -- basic invariants -------------------------------------------------

    def maximal_cones(self) -> tuple[Cone, ...]:
        return self._maximal

    def support_cone(self) -> SupportCone:
        """Cone spanned by all rays, and whether every fan cone is a face of it.

        Faces of a face are faces, so the maximal cones decide the flag.
        Built once per fan.
        """
        if self._support is None:
            sigma = Cone.from_rays(self.rays, self.ambient_rank)
            self._support = SupportCone(sigma, all(c.is_face_of(sigma) for c in self._maximal))
        return self._support

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
        exactly two full-dimensional cones.  In a fan a cone whose rays
        are rays of another cone is a face of it, so facets are found
        by ray-set inclusion.
        """
        n = self.ambient_rank
        if n == 0:
            return True
        full = self._full_cones()
        if not full or len(full) != len(self._maximal):
            return False
        full_rays = [frozenset(big.rays) for big in full]
        for wall in (c for c in self.cones if c.dim() == n - 1):
            if sum(1 for big in full_rays if big.issuperset(wall.rays)) != 2:
                return False
        return True

    # -- class group and torus factors -------------------------------------

    def class_group(self) -> ClassGroup:
        """Cokernel of the restriction of characters to the rays.

        The free rank is (number of rays) - (ambient rank); nontrivial
        invariant factors are reported as torsion.
        """
        snf = smith_normal_form(self.rays)
        if snf.rank != self.ambient_rank:
            raise PreconditionError(
                "rays do not span the ambient space; split off the torus factor first"
            )
        torsion = tuple(x for x in snf.diagonal if x > 1)
        return ClassGroup(len(self.rays) - snf.rank, torsion)

    def split_torus_factor(self) -> TorusSplit:
        """Re-express the fan inside the saturated span of its rays.

        The toric variety is the product of the reduced fan's variety
        with a torus whose rank is the returned ``torus_rank``.
        """
        basis = saturated_span(self.rays)
        k = self.ambient_rank - len(basis)
        if k == 0:
            return TorusSplit(self, 0, basis)
        mapped = [
            Cone.from_rays([hermite_coordinates(basis, r) for r in c.rays], len(basis))
            for c in self._maximal
        ]
        return TorusSplit(Fan.from_cones(mapped, len(basis)), k, basis)

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
        summand of the lattice.  The rays of a fan that passes form a
        lattice basis, so every cone is a face of the simplicial support
        cone; that is checked as an invariant.  On success the coordinate
        semigroup of the ambient affine variety is attached.
        """
        reduced, k, _ = self.split_torus_factor()
        cg = reduced.class_group()
        smooth = self.is_smooth()
        if not smooth:
            c = next(c for c in reduced.cones if not c.is_smooth())
            detail = f"cone {c!r} is singular"
            verdict = QuasiAffineVerdict(False, "smoothness", detail, k, None, None, None)
        elif cg.rank != 0 or cg.torsion:
            detail = f"class group has rank {cg.rank} and torsion {list(cg.torsion)}"
            verdict = QuasiAffineVerdict(False, "class_group", detail, k, *cg, None)
        elif not reduced.support_cone().every_cone_is_face:
            raise IntegrityError(
                "a smooth fan with trivial class group has a cone that is not "
                "a face of its support cone"
            )
        else:
            verdict = QuasiAffineVerdict(True, None, None, k, *cg, fan_coordinate_semigroup(self))
        return FanReport(
            smooth=smooth,
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


def _separated(sigma: Cone, tau: Cone, incidences=None) -> bool:
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
    sigma and tau, when the caller already has them.
    """
    inc_s, inc_t = incidences or (_incidence(sigma), _incidence(tau))
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


def _incidence(cone: Cone) -> tuple[tuple[Vec, frozenset], ...]:
    """Each facet normal of a cone with the set of the cone's rays it vanishes on."""
    return tuple(
        (a, frozenset(r for r in cone.rays if pairing(a, r) == 0)) for a in cone.facet_normals
    )


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
