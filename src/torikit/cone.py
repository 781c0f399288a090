"""Rational polyhedral cones with exact dual-description conversion.

A cone is stored canonically: a Hermite-form basis of the saturated
lineality lattice plus the primitive extremal rays of the pointed
quotient, sorted lexicographically.  Equality of cones is therefore
plain data equality.  The V<->H conversion is an incremental double
description computation over exact integers.

Simplicial cones, those spanned by linearly independent generators, are
handled in closed form (Fulton, Introduction to Toric Varieties, 1.2):
the primitive generators are the extremal rays; its faces are the
cones over the subsets of its rays.  A list of n generators in rank n
runs one adjugate, whose nonzero determinant decides independence and
whose primitive columns are the facet normals at once: the normal
opposite ray j pairs positively with ray j and to zero with every
other ray.  The cone keeps each normal with its opposite ray, so its
facet incidence is read off without pairing, and it is smooth exactly
when |det| = 1.  :meth:`Cone._of_canonical` builds every cone on sorted,
distinct, nonzero and primitive generators: the lists that
:meth:`Cone.from_rays` canonicalizes and the checked cones of a fan
document, so a dependent list takes one adjugate.  The dual of a
full-dimensional simplex is the cone on its kept normals, built only
when it is read, and it reads the pairs swapped, as ray j pairs to zero
with every normal but its own; a full-dimensional simplex that another
path built runs the adjugate when its pairs are first read.  Only the
dual of a lower-dimensional simplicial cone runs the double description,
and only when something reads it: such a cone built from its generators
keeps no halfspaces until then.  A dual, once built, keeps the cone as
its own dual, since the dual of the dual is the cone (Fulton, 1.2); the
dimension of each is the rank less the dimension of the other's
lineality.

Every H-description is cross-checked once, where it is built.  The
normals of a full-dimensional simplex must have the exact incidence
above where they are kept, and its dual is built from those checked
normals.  Otherwise the rays must pair nonnegatively with the facet
normals and to zero with the span equations, and the lineality, which
lies in the cone in both directions, to zero with both.  A failure is
an :class:`IntegrityError`, whichever path built the cone.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul

from .errors import DimensionError, IntegrityError, PreconditionError
from .lattice import (
    Vec,
    adjugate,
    hermite_normal_form,
    matrix_rank,
    neg,
    pairing,
    primitive,
    saturated_span,
    scale,
    sub,
    vector,
)


def _dd(rank: int, inequalities, equations) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """V-description of {x : <a,x> >= 0 for a in inequalities, <b,x> = 0 for b in equations}.

    Returns (lineality basis, extremal rays), both canonicalized.  Each
    equation b is inserted as the halfspaces b and -b, before the
    inequalities, which follow in lexicographic order.  The lineality
    lies on every inserted hyperplane, and each ray keeps its zero set,
    the bitmask of the inserted halfspaces it lies on, so an insertion
    pairs each ray and lineality vector once with the new halfspace.  If
    that cuts the lineality, one direction of the pivot line becomes a
    ray on every earlier hyperplane, and the other vectors are projected
    into the new one, a ray gaining its bit.  Otherwise the rays on the
    negative side go, those on the hyperplane gain its bit, and each
    adjacent positive ray p and negative ray q give the ray between them
    on it, with zero set mask(p) & mask(q) and its bit.  p and q are
    adjacent when no third ray's zero set contains their common one,
    which is exact since every kept ray is extremal (Fukuda and Prodon,
    Double description method revisited, 1996).
    """
    lineality: list[Vec] = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays: dict[Vec, int] = {}
    halfspaces = [h for b in sorted({vector(b) for b in equations if any(b)}) for h in (b, neg(b))]
    halfspaces += sorted({vector(a) for a in inequalities if any(a)})

    for k, a in enumerate(halfspaces):
        bit = 1 << k
        vals = [pairing(a, l) for l in lineality]
        piv = next((i for i, v in enumerate(vals) if v), None)
        if piv is not None:
            l0, d0 = lineality[piv], vals[piv]
            if d0 < 0:
                l0, d0 = neg(l0), -d0
            lineality = [
                primitive(sub(scale(d0, l), scale(v, l0)))
                for i, (l, v) in enumerate(zip(lineality, vals))
                if i != piv
            ]
            rays = {primitive(sub(scale(d0, r), scale(pairing(a, r), l0))): z | bit
                    for r, z in rays.items()}
            rays[primitive(l0)] = bit - 1
            continue
        side = {r: pairing(a, r) for r in rays}
        pos = [r for r, v in side.items() if v > 0]
        negs = [r for r, v in side.items() if v < 0]
        fresh: dict[Vec, int] = {}
        for p in pos:
            for q in negs:
                common = rays[p] & rays[q]
                if not any(common & z == common
                           for r, z in rays.items() if r is not p and r is not q):
                    fresh[primitive(sub(scale(side[p], q), scale(side[q], p)))] = common | bit
        rays = {r: z if side[r] else z | bit for r, z in rays.items() if side[r] >= 0} | fresh

    return saturated_span(lineality), tuple(sorted(rays))


class Cone:
    """A rational polyhedral cone in a fixed lattice, in canonical form.

    Construct with :meth:`from_rays`; the raw constructor trusts its
    arguments to already be canonical.
    """

    __slots__ = ("ambient_rank", "rays", "lineality", "_dual", "_facets", "_unimodular", "_dim",
                 "_hash")

    def __init__(self, ambient_rank: int, rays=(), lineality=()):
        self.ambient_rank = int(ambient_rank)
        self.rays: tuple[Vec, ...] = tuple(map(tuple, rays))
        self.lineality: tuple[Vec, ...] = tuple(map(tuple, lineality))
        self._dual: Cone | None = None
        # (facet normal, opposite ray) pairs of a full simplex, by normal
        self._facets: tuple[tuple[Vec, Vec], ...] | None = None
        # whether every kept normal pairs to 1 with its opposite ray
        self._unimodular: bool | None = None
        self._dim: int | None = None
        self._hash: int | None = None

    @classmethod
    def from_rays(cls, generators, ambient_rank: int | None = None) -> "Cone":
        """Canonicalize a generator list into a cone.

        Zero generators are dropped; non-extremal generators are
        discarded; opposite generators are absorbed into the lineality
        part.  An empty list gives the zero cone.  The generators are made
        primitive, distinct and sorted, and :meth:`_of_canonical` builds
        the cone on them.
        """
        gens = [vector(g) for g in generators]
        if ambient_rank is None:
            if not gens:
                raise DimensionError("ambient rank required for an empty generator list")
            ambient_rank = len(gens[0])
        for g in gens:
            if len(g) != ambient_rank:
                raise DimensionError("generators have mixed ranks")
        return cls._of_canonical(sorted({primitive(g) for g in gens if any(g)}), ambient_rank)

    @classmethod
    def _of_canonical(cls, gens, ambient_rank: int) -> "Cone":
        """The cone on sorted, distinct, nonzero and primitive generators of that rank.

        Linearly independent ones are already the canonical rays.  When
        there are as many of them as the ambient rank, one adjugate decides
        their independence, and its columns are kept as the facet pairs,
        each checked against every ray (:meth:`_keep_facet_pairs`); the
        dual is built from them when :meth:`dual` is first read.  Fewer
        independent ones build no halfspaces until then.  Any other list,
        dependent or longer than the rank, runs the double description
        twice, out to the halfspaces and back, and keeps the halfspaces,
        with every generator checked against them.
        """
        if len(gens) == ambient_rank:
            try:
                det, adj = adjugate(gens)
            except PreconditionError:
                pass  # dependent: the double description below
            else:
                cone = cls(ambient_rank, gens)
                cone._keep_facet_pairs(det, adj)
                return cone
        elif len(gens) < ambient_rank and matrix_rank(gens) == len(gens):
            cone = cls(ambient_rank, gens)
            cone._dim = len(gens)
            return cone
        lin_d, rays_d = _dd(ambient_rank, gens, ())
        lin_c, rays_c = _dd(ambient_rank, rays_d, lin_d)
        cone = cls(ambient_rank, rays_c, lin_c)
        cone._link(_cross_checked(gens, lin_c, cls(ambient_rank, rays_d, lin_d)))
        return cone

    @classmethod
    def zero(cls, ambient_rank: int) -> "Cone":
        return cls(ambient_rank)

    # -- canonical data ------------------------------------------------

    def key(self):
        return (self.ambient_rank, self.rays, self.lineality)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        # the canonical data is never reassigned after construction
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        parts = [f"rank={self.ambient_rank}", f"rays={list(self.rays)}"]
        if self.lineality:
            parts.append(f"lineality={list(self.lineality)}")
        return f"Cone({', '.join(parts)})"

    # -- dual description ----------------------------------------------

    def dual(self) -> "Cone":
        """The cone of functionals that are nonnegative on this cone.

        For a full-dimensional simplex, the cone on its kept facet normals
        (from the adjugate of its rays, if it keeps none yet), which were
        checked against every ray when they were kept; otherwise the
        double description, cross-checked against this cone's rays and
        lineality.  :meth:`_of_canonical` builds it with the cone for a list it
        had to run the double description on, and a built dual has this
        cone as its dual; any other cone builds it on the first read.
        """
        if self._dual is None:
            pairs = self._facet_pairs()
            if pairs is not None:
                self._link(Cone(self.ambient_rank, tuple(a for a, _ in pairs)))
            else:
                lin, rays = _dd(self.ambient_rank, self.rays, self.lineality)
                dual = Cone(self.ambient_rank, rays, lin)
                self._link(_cross_checked(self.rays, self.lineality, dual))
        return self._dual

    def _link(self, dual: "Cone") -> None:
        """Keep ``dual`` as the dual of this cone, and this cone as the dual of ``dual``."""
        self._dual, dual._dual = dual, self
        self._dim = self.ambient_rank - len(dual.lineality)
        dual._dim = self.ambient_rank - len(self.lineality)

    def _keep_facet_pairs(self, det: int, adj) -> None:
        """Keep the facet pairs of a full-dimensional simplex from the adjugate of its rays.

        Column j of adj(G), times the sign of det G, is the normal opposite
        ray j (G adj(G) = det(G) I).  It is checked to pair positively with
        ray j and to zero with every other ray, and kept with ray j; the
        dual is built from them when it is read.  A dual that is already
        built must have these normals as its rays.

        The simplex is unimodular, every normal pairing to 1 with its
        opposite ray, exactly when |det G| = 1.  With c_j the content of
        column j of adj(G), the normal opposite ray j pairs with it to
        |det G| / c_j, a positive integer.  If |det G| = 1, each pairing is
        then 1.  If each is 1, every c_j is |det G|, so adj(G) / det G =
        G^-1 is integral, and so is its determinant 1 / det G.
        """
        rays = self.rays
        columns = zip(*adj) if det > 0 else zip(*map(neg, adj))
        pairs = tuple(sorted(zip(map(primitive, columns), rays)))
        for a, opposite in pairs:
            for r in rays:
                value = sum(map(mul, a, r))
                if (value <= 0) if r is opposite else value:
                    raise IntegrityError("generator/normal cross-validation failed")
        if self._dual is not None and self._dual.rays != tuple(a for a, _ in pairs):
            raise IntegrityError("generator/normal cross-validation failed")
        self._facets, self._unimodular, self._dim = pairs, abs(det) == 1, self.ambient_rank

    def _facet_pairs(self):
        """Each facet normal with its opposite ray for a full-dimensional simplex,
        however it was built, its dual's swapped if that keeps them, with the
        same pairings and so the same unimodularity; else None."""
        if self._facets is None and len(self.rays) == self.ambient_rank and self.is_simplex():
            if self._dual is not None and self._dual._facets is not None:
                self._facets = tuple(sorted((r, a) for a, r in self._dual._facets))
                self._unimodular = self._dual._unimodular
            else:
                self._keep_facet_pairs(*adjugate(self.rays))
        return self._facets

    def _is_unimodular_simplex(self) -> bool:
        """Whether the cone is a full-dimensional simplex whose every normal
        pairs to 1 with its opposite ray: its rays are then a lattice basis.
        The flag is decided where the pairs are kept."""
        return self._facet_pairs() is not None and self._unimodular

    @property
    def facet_normals(self) -> tuple[Vec, ...]:
        return self.dual().rays

    @property
    def span_equations(self) -> tuple[Vec, ...]:
        return self.dual().lineality

    def contains(self, point) -> bool:
        v = vector(point)
        if len(v) != self.ambient_rank:
            raise DimensionError("point rank does not match the cone")
        return all(pairing(a, v) >= 0 for a in self.facet_normals) and all(
            pairing(b, v) == 0 for b in self.span_equations
        )

    # -- predicates ------------------------------------------------------

    def dim(self) -> int:
        if self._dim is None:
            self._dim = matrix_rank(self.lineality + self.rays)
        return self._dim

    def is_strongly_convex(self) -> bool:
        return not self.lineality

    def is_simplex(self) -> bool:
        """Whether the cone is spanned by linearly independent rays.

        A cone with lineality is never a simplex: its canonical
        extremal-ray list describes only the pointed quotient.
        """
        return not self.lineality and self.dim() == len(self.rays)

    def is_smooth(self) -> bool:
        """Whether the rays extend to a lattice basis, which dependent rays never do:
        k independent rays do when the Hermite form of their columns is the identity."""
        if not self.is_strongly_convex():
            raise PreconditionError("smoothness is defined for strongly convex cones")
        if self._facet_pairs() is not None:
            return self._is_unimodular_simplex()
        return self.is_simplex() and all(
            row[i] == 1 for i, row in enumerate(hermite_normal_form(zip(*self.rays))))

    # -- faces -----------------------------------------------------------

    def faces(self) -> list["Cone"]:
        """All faces of the cone, itself included, sorted by (dimension, rays).

        A cone that is not a simplex is walked down one dimension per level,
        the next level the :func:`_facets` of this one, each level sorted by rays."""
        if self.is_simplex():
            # the sorted subsets of sorted rays, taken by size, are in order
            levels = [(k, combinations(self.rays, k)) for k in range(len(self.rays) + 1)]
        else:
            walls = [zeros for _, zeros in _incidence(self)]
            level, levels = {frozenset(self.rays)}, []
            for d in range(self.dim(), len(self.lineality) - 1, -1):
                levels.insert(0, (d, sorted(tuple(sorted(face)) for face in level)))
                level = {facet for face in level for facet in _facets(face, walls)}
        out = []
        for d, subsets in levels:
            for rays in subsets:
                face = Cone(self.ambient_rank, rays, self.lineality)
                face._dim = d
                out.append(face)
        return out

    def is_face_of(self, other: "Cone") -> bool:
        """Whether this cone is cut out of ``other`` by a supporting normal.

        A face has the lineality of ``other`` and a subset of its rays.
        Every subset of the rays of a simplicial cone spans a face, so
        for a simplicial ``other`` that settles it; otherwise the facet
        normals that vanish on this cone must carve out exactly its rays.
        """
        if self.ambient_rank != other.ambient_rank:
            raise DimensionError("cones live in different lattices")
        rays = frozenset(self.rays)
        if self.lineality != other.lineality or not rays <= set(other.rays):
            return False
        if other.is_simplex():
            return True
        carved = frozenset(other.rays)
        for _, zeros in _incidence(other):
            if rays <= zeros:
                carved &= zeros
        return carved == rays

    def intersect(self, other: "Cone") -> "Cone":
        if self.ambient_rank != other.ambient_rank:
            raise DimensionError("cones live in different lattices")
        normals = sorted(set(self.facet_normals) | set(other.facet_normals))
        equations = tuple(self.span_equations) + tuple(other.span_equations)
        lin, rays = _dd(self.ambient_rank, normals, equations)
        return Cone(self.ambient_rank, rays, lin)


def _cross_checked(generators, lineality, dual: Cone) -> Cone:
    """``dual``, once checked against the cone it describes.

    The cone's generators must pair nonnegatively with the facet normals
    (the rays of ``dual``) and to zero with the span equations (its
    lineality).  The cone's lineality vectors lie in it with their
    negatives, so they must pair to zero with both.
    """
    normals, equations = dual.rays, dual.lineality
    if (any(sum(map(mul, a, g)) < 0 for g in generators for a in normals)
            or any(sum(map(mul, b, v)) for v in (*generators, *lineality) for b in equations)
            or any(sum(map(mul, a, l)) for l in lineality for a in normals)):
        raise IntegrityError("generator/normal cross-validation failed")
    return dual


def _incidence(cone: Cone) -> tuple[tuple[Vec, frozenset], ...]:
    """Each facet normal of a cone with the set of the cone's rays it vanishes on.

    A facet normal of a full-dimensional simplex vanishes on every ray but
    the opposite one, which the cone keeps with it; other cones pair.
    """
    pairs = cone._facet_pairs()
    if pairs is not None:
        rays = frozenset(cone.rays)
        return tuple((a, rays - {r}) for a, r in pairs)
    return tuple(
        (a, frozenset(r for r in cone.rays if pairing(a, r) == 0)) for a in cone.facet_normals
    )


def _facets(face: frozenset, walls) -> list[frozenset]:
    """The facets of a face as ray sets: its maximal proper meets with the walls,
    the ray sets of the cone's facets (De Loera, Rambau, Santos, Triangulations, 4.3)."""
    meets = {face & wall for wall in walls} - {face}
    return [meet for meet in meets if not any(meet < other for other in meets)]


def orthogonal_face(ray, dual_cone: Cone) -> Cone:
    """The face of ``dual_cone`` orthogonal to a supporting ray direction."""
    rho = vector(ray)
    if len(rho) != dual_cone.ambient_rank:
        raise DimensionError("ray rank does not match the cone")
    if any(pairing(r, rho) < 0 for r in dual_cone.rays) or any(
        pairing(l, rho) != 0 for l in dual_cone.lineality
    ):
        raise PreconditionError("the given ray does not support the cone")
    kept = tuple(sorted(r for r in dual_cone.rays if pairing(r, rho) == 0))
    return Cone(dual_cone.ambient_rank, kept, dual_cone.lineality)
