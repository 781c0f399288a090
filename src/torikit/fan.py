"""Fans of strongly convex cones and the invariants of their toric varieties.

A fan is stored face-closed.  The module computes the quantities needed
to decide whether the associated smooth toric variety embeds as an open
subvariety of an affine one: support cone, divisor class group, Euler
characteristic, torus-factor splitting and the resulting verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cone import Cone
from .errors import DimensionError, NotAFanError, PreconditionError
from .lattice import Vec, matrix_rank, saturated_span, smith_normal_form, solve_rational
from .semigroup import AffineSemigroup, fan_coordinate_semigroup, hilbert_basis


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


class DimensionCheck(NamedTuple):
    holds: bool
    note: Optional[str]


@dataclass(frozen=True)
class QuasiAffineVerdict:
    quasi_affine: bool
    failed_step: Optional[str]          # None, "smoothness", "class_group" or "support_face"
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
    """A face-closed, intersection-compatible collection of strongly convex cones."""

    __slots__ = ("ambient_rank", "cones", "rays")

    def __init__(self, ambient_rank: int, cones: tuple[Cone, ...], rays: tuple[Vec, ...]):
        self.ambient_rank = ambient_rank
        self.cones = cones
        self.rays = rays

    @classmethod
    def from_cones(cls, cones, ambient_rank: int | None = None) -> "Fan":
        """Validate a raw cone list into a fan.

        The input is closed under faces and deduplicated; listing only
        maximal cones therefore suffices.  The intersection check runs
        on pairs of maximal input cones (those that are not a face of
        another input cone) only: when two cones meet in a common face,
        so does every face of one with every face of the other.  A pair
        of maximal cones whose intersection is not a common face is
        rejected; an input cone that lies inside another without being
        one of its faces is maximal, so it is checked too.
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
        ordered = sorted(closure.values(), key=lambda c: (c.dim(), c.rays))
        listed = sorted(set(cones), key=lambda c: (c.dim(), c.rays))
        maximal = [c for c in listed if not any(c is not d and c.is_face_of(d) for d in listed)]
        for i in range(len(maximal)):
            for j in range(i + 1, len(maximal)):
                meet = maximal[i].intersect(maximal[j])
                if not (meet.is_face_of(maximal[i]) and meet.is_face_of(maximal[j])):
                    raise NotAFanError(
                        f"not a fan: maximal cones {maximal[i]!r} and {maximal[j]!r} "
                        "do not intersect in a common face"
                    )
        rays = tuple(sorted(c.rays[0] for c in ordered if c.dim() == 1))
        return cls(ambient_rank, tuple(ordered), rays)

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
        return tuple(
            c for c in self.cones
            if not any(c is not d and c.is_face_of(d) for d in self.cones)
        )

    def support_cone(self) -> SupportCone:
        """Cone spanned by all rays, and whether every fan cone is a face of it."""
        sigma = Cone.from_rays(self.rays, self.ambient_rank)
        flag = all(c.is_face_of(sigma) for c in self.cones)
        return SupportCone(sigma, flag)

    def euler_characteristic(self) -> int:
        """Number of cones of full dimension.

        Orbits of lower-dimensional cones carry torus factors and
        contribute zero to the additive decomposition, so only the
        zero-dimensional orbits count.
        """
        return sum(1 for c in self.cones if c.dim() == self.ambient_rank)

    def is_smooth(self) -> bool:
        return all(c.is_smooth() for c in self.cones)

    def is_complete(self) -> bool:
        """Whether the cones cover the whole ambient space.

        Criterion: some cone is full-dimensional, every cone is a face
        of a full-dimensional one, and every codimension-one cone is a
        facet of exactly two full-dimensional cones.
        """
        n = self.ambient_rank
        if n == 0:
            return True
        full = [c for c in self.cones if c.dim() == n]
        if not full:
            return False
        for c in self.cones:
            if c.dim() < n and not any(c.is_face_of(big) for big in full):
                return False
        for wall in (c for c in self.cones if c.dim() == n - 1):
            if sum(1 for big in full if wall.is_face_of(big)) != 2:
                return False
        return True

    # -- class group and torus factors -------------------------------------

    def class_group(self) -> ClassGroup:
        """Cokernel of the restriction of characters to the rays.

        The free rank is (number of rays) - (ambient rank); nontrivial
        invariant factors are reported as torsion.
        """
        d = len(self.rays)
        n = self.ambient_rank
        if matrix_rank(self.rays) != n:
            raise PreconditionError(
                "rays do not span the ambient space; split off the torus factor first"
            )
        snf = smith_normal_form(self.rays)
        torsion = tuple(x for x in snf.diagonal if x > 1)
        return ClassGroup(d - n, torsion)

    def split_torus_factor(self) -> TorusSplit:
        """Re-express the fan inside the saturated span of its rays.

        The toric variety is the product of the reduced fan's variety
        with a torus whose rank is the returned ``torus_rank``.
        """
        basis = saturated_span(self.rays)
        k = self.ambient_rank - len(basis)
        if k == 0:
            return TorusSplit(self, 0, basis)
        mapped = []
        for c in self.cones:
            local_rays = []
            for r in c.rays:
                coords = solve_rational(basis, r)
                assert coords is not None and all(t.denominator == 1 for t in coords)
                local_rays.append(tuple(int(t) for t in coords))
            mapped.append(Cone.from_rays(local_rays, len(basis)))
        return TorusSplit(Fan.from_cones(mapped, len(basis)), k, basis)

    # -- the quasi-affine pipeline ------------------------------------------

    def quasi_affine_verdict(self) -> QuasiAffineVerdict:
        """Decide whether the (smooth) toric variety is quasi-affine.

        Pipeline: split off torus factors, require all cones smooth,
        require trivial class group on the reduced fan, then certify
        that every cone is a face of the support cone.  On success the
        coordinate semigroup of the ambient affine variety is attached.
        """
        split = self.split_torus_factor()
        return self._verdict(split, split.reduced_fan.class_group())

    def _verdict(self, split: TorusSplit, cg: ClassGroup) -> QuasiAffineVerdict:
        """The verdict from a torus split of this fan and the reduced fan's class group."""
        reduced, k, _ = split
        for c in reduced.cones:
            if not c.is_smooth():
                return QuasiAffineVerdict(
                    False, "smoothness", f"cone {c!r} is singular", k, None, None, None
                )
        if cg.rank != 0 or cg.torsion:
            return QuasiAffineVerdict(
                False,
                "class_group",
                f"class group has rank {cg.rank} and torsion {list(cg.torsion)}",
                k,
                cg.rank,
                cg.torsion,
                None,
            )
        sigma, all_faces = reduced.support_cone()
        if not all_faces:
            return QuasiAffineVerdict(
                False,
                "support_face",
                "some cone is not a face of the cone spanned by all rays",
                k,
                cg.rank,
                cg.torsion,
                None,
            )
        # with no torus factor the reduced fan is this fan, so sigma is its support cone
        ambient = hilbert_basis(sigma.dual()) if k == 0 else fan_coordinate_semigroup(self)
        return QuasiAffineVerdict(True, None, None, k, cg.rank, cg.torsion, ambient)

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
        return FixedPointWitness(
            True, tuple(c for c in self.cones if c.dim() == self.ambient_rank)
        )

    def dimension_check(self, p: int) -> DimensionCheck:
        """The torus of a rank-n fan supports a faithful action of an
        elementary abelian p-group of rank n, so the dimension bound from
        the fixed-point criterion is always met for fans."""
        chi = self.euler_characteristic()
        note = None
        if p >= 2 and chi % p == 0:
            note = (
                "the Euler characteristic is divisible by p, so the "
                "fixed-point criterion itself gives no information here"
            )
        return DimensionCheck(True, note)

    # -- aggregate report -----------------------------------------------------

    def report(self) -> FanReport:
        split = self.split_torus_factor()
        cg = split.reduced_fan.class_group()
        return FanReport(
            smooth=self.is_smooth(),
            complete=self.is_complete(),
            edge_count=len(self.rays),
            class_rank=cg.rank,
            class_torsion=cg.torsion,
            euler_characteristic=self.euler_characteristic(),
            torus_rank=split.torus_rank,
            verdict=self._verdict(split, cg),
        )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True
