"""Brute-force reference computations, independent of the library's algorithms.

Cone membership goes through conic Caratheodory (exact rational solves
over independent generator subsets) instead of the double description
machinery; semigroup generation is a graded memoized search instead of
the irreducibility sieve.  Where a fast path replaced an algorithm,
the algorithm it replaced is kept here as the reference.
"""

import operator
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from operator import mul

from torikit.cone import Cone, orthogonal_face
from torikit.derivations import NILPOTENCY_CAP
from torikit.errors import (
    DimensionError,
    FanDocumentError,
    IntegrityError,
    NilpotencyCapError,
    PreconditionError,
)
from torikit.fan import Fan
from torikit.lattice import (
    Mat,
    Vec,
    _bareiss,
    add,
    hermite_coordinates,
    is_primitive,
    matrix_rank,
    neg,
    pairing,
    primitive,
    saturated_span,
    scale,
    smith_normal_form,
    sub,
    vector,
)
from torikit.semigroup import (
    AffineSemigroup,
    AlgebraElement,
    boundary_projection,
    hilbert_basis,
)


def solve_rational(rows, target):
    """Solve sum_i x_i * rows[i] = target over the rationals.

    Returns a tuple of Fractions (free coordinates set to 0), or None if
    the system is inconsistent.
    """
    k = len(rows)
    n = len(target)
    # augmented system A x = target with A[j][i] = rows[i][j]
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])] for j in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][c]
        aug[r] = [x / p for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k]:
            return None
    x = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        x[c] = aug[i][k]
    return tuple(x)


def matrix_rank_without_division(rows) -> int:
    """Rank over the rationals, by fraction-free Gaussian elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    n = len(work[0])
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                c = work[i][col]
                work[i] = [p * x - c * y for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def determinant_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    M = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in M):
        raise DimensionError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def adjugate_gauss_jordan(rows):
    """Determinant and adjugate of a nonsingular square integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [A | I]: every
    entry after step k is a (k+1)-minor of the row-permuted matrix, so
    each division is exact, and the elimination ends at [d * I | d * A^-1]
    with d = det(PA) for the row permutation P.  Then A * adj(A) =
    det(A) * I, so column j of adj(A) pairs to zero with every row of A
    but row j.
    """
    n = len(rows)
    M = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if any(len(row) != 2 * n for row in M):
        raise DimensionError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                raise PreconditionError("matrix is singular")
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot_row = M[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                c = M[i][k]
                M[i] = [(p * x - c * y) // prev for x, y in zip(M[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in M)


def adjugate_back_substitution(rows):
    """Determinant and adjugate of a nonsingular square integer matrix.

    :func:`_bareiss` of [A | I] gives [U | W] with U = W * A upper triangular and
    d = det(PA) its last pivot, for the row permutation P.  Back substitution in
    U * X = d * W gives X = d * A^-1, which is integral, so each division is exact,
    and adj(A) = sign(P) * X.  As A * adj(A) = det(A) * I, column j of adj(A) pairs
    to zero with every row of A but row j.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("matrix is not square")
    M, pivots, sign = _bareiss([[*row, *[0] * i, 1, *[0] * (n - i - 1)]
                                for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise PreconditionError("matrix is singular")
    d = M[-1][n - 1] if n else 1
    X: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        U = M[i]
        rest = [d * w for w in U[n:]]
        for j in range(i + 1, n):
            rest = [r - U[j] * x for r, x in zip(rest, X[j])]
        X[i] = [r // U[i] for r in rest]
    return sign * d, tuple(tuple(sign * x for x in row) for row in X)


def independent_wall_generators_greedy(wall_gens, n):
    """The first n - 1 wall generators that raise the rank, by one rank test per generator."""
    independent = []
    for h in wall_gens:
        if matrix_rank_without_division(independent + [h]) > len(independent):
            independent.append(h)
        if len(independent) == n - 1:
            break
    return independent


def box_points(rank, radius, lo=None):
    low = -radius if lo is None else lo
    return product(range(low, radius + 1), repeat=rank)


def cone_contains_bruteforce(generators, point):
    """Membership of a point in the cone of the generators.

    A point of the cone is a nonnegative combination of some linearly
    independent subset of the generators, so all such subsets are tried.
    """
    gens = [tuple(g) for g in generators if any(g)]
    if not any(point):
        return True
    rank = len(point)
    for size in range(1, min(len(gens), rank) + 1):
        for subset in combinations(gens, size):
            if matrix_rank(subset) != size:
                continue
            coeffs = solve_rational(subset, point)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def dd_recomputing_zero_sets(rank: int, inequalities, equations) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """V-description of {x : <a,x> >= 0 for a in inequalities, <b,x> = 0 for b in equations}.

    Returns (lineality basis, extremal rays), both canonicalized.  The
    double description that ``torikit.cone._dd`` replaced: equations and
    inequalities have separate loops, and each insertion that cuts a ray
    off rebuilds every ray's zero set by pairing it with every inequality
    inserted so far.
    Halfspaces are inserted in lexicographic order; adjacency of rays is
    decided by the combinatorial zero-set test, which is exact for the
    extremal-ray invariant maintained here.
    """
    lineality: list[Vec] = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays: list[Vec] = []
    processed: list[Vec] = []

    for b in sorted({vector(b) for b in equations if any(b)}):
        vals = [pairing(b, l) for l in lineality]
        piv = next((i for i, v in enumerate(vals) if v), None)
        if piv is None:
            continue
        l0, d0 = lineality[piv], vals[piv]
        lineality = [
            primitive(sub(scale(d0, l), scale(v, l0)))
            for i, (l, v) in enumerate(zip(lineality, vals))
            if i != piv
        ]

    for a in sorted({vector(a) for a in inequalities if any(a)}):
        vals = [pairing(a, l) for l in lineality]
        piv = next((i for i, v in enumerate(vals) if v), None)
        if piv is not None:
            # The halfspace cuts the lineality space: one direction of the
            # pivot line becomes a ray, everything else is projected into
            # the bounding hyperplane.
            l0, d0 = lineality[piv], vals[piv]
            if d0 < 0:
                l0, d0 = neg(l0), -d0
            lineality = [
                primitive(sub(scale(d0, l), scale(v, l0)))
                for i, (l, v) in enumerate(zip(lineality, vals))
                if i != piv
            ]
            rays = [primitive(sub(scale(d0, r), scale(pairing(a, r), l0))) for r in rays]
            rays.append(primitive(l0))
        else:
            pos = [r for r in rays if pairing(a, r) > 0]
            zer = [r for r in rays if pairing(a, r) == 0]
            negs = [r for r in rays if pairing(a, r) < 0]
            if negs:
                tight = {
                    r: frozenset(i for i, c in enumerate(processed) if pairing(c, r) == 0)
                    for r in rays
                }
                fresh: list[Vec] = []
                for p in pos:
                    for q in negs:
                        common = tight[p] & tight[q]
                        if any(r is not p and r is not q and common <= tight[r] for r in rays):
                            continue
                        w = primitive(sub(scale(pairing(a, p), q), scale(pairing(a, q), p)))
                        if w not in fresh:
                            fresh.append(w)
                rays = pos + zer + [w for w in fresh if w not in pos and w not in zer]
            # with no negative rays everything survives unchanged
        processed.append(a)

    lin_basis = saturated_span(lineality)
    return lin_basis, tuple(sorted(set(rays)))


def cone_from_rays_dd(generators, ambient_rank):
    """Canonical cone of a generator list by two double description runs.

    Out to the halfspaces and back, for any generators; the dual found
    on the way is attached.
    """
    gens = sorted({primitive(vector(g)) for g in generators if any(g)})
    lin_d, rays_d = dd_recomputing_zero_sets(ambient_rank, gens, ())
    lin_c, rays_c = dd_recomputing_zero_sets(ambient_rank, rays_d, lin_d)
    cone = Cone(ambient_rank, rays_c, lin_c)
    cone._dual = Cone(ambient_rank, rays_d, lin_d)
    return cone


def faces_frontier(cone):
    """All faces of a cone, by cutting ray sets with facet normals until none is new.

    Sorted by (dimension, rays), dimensions by matrix rank.
    """
    normals = cone.facet_normals
    rays = cone.rays
    everything = frozenset(range(len(rays)))
    seen = {everything}
    frontier = [everything]
    while frontier:
        current = frontier.pop()
        for a in normals:
            cut = frozenset(i for i in current if pairing(a, rays[i]) == 0)
            if cut not in seen:
                seen.add(cut)
                frontier.append(cut)
    out = [Cone(cone.ambient_rank, tuple(sorted(rays[i] for i in subset)), cone.lineality)
           for subset in seen]
    out.sort(key=lambda c: (matrix_rank(c.lineality + c.rays), c.rays))
    return out


def is_face_of_facet_walk(cone, other):
    """Whether ``cone`` is a face of ``other``, for any ``other``.

    Same lineality, a subset of the rays, and the facet normals of
    ``other`` that vanish on ``cone`` carve out exactly its rays.  This
    is what ``Cone.is_face_of`` does when ``other`` is not simplicial.
    """
    if cone.lineality != other.lineality or not set(cone.rays) <= set(other.rays):
        return False
    tight = [a for a in other.facet_normals if all(pairing(a, r) == 0 for r in cone.rays)]
    carved = tuple(sorted(r for r in other.rays if all(pairing(a, r) == 0 for a in tight)))
    return carved == cone.rays


def is_smooth_smith(cone):
    """Whether the rays of a strongly convex cone extend to a lattice basis:
    all invariant factors of the ray matrix are 1."""
    if cone.lineality:
        raise PreconditionError("smoothness is defined for strongly convex cones")
    if not cone.rays:
        return True
    snf = smith_normal_form(cone.rays)
    return snf.rank == len(cone.rays) and all(d == 1 for d in snf.diagonal[: snf.rank])


def invert_unimodular(M):
    """Exact inverse of a unimodular integer matrix, by Gauss-Jordan over the rationals."""
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise IntegrityError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = []
    for i in range(n):
        row = aug[i][n:]
        if any(x.denominator != 1 for x in row):
            raise IntegrityError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def hermite_normal_form_by_insertion(matrix) -> Mat:
    """Canonical row-echelon basis of the lattice spanned by the rows, each row
    inserted by extended gcds into the echelon basis before one normalising pass.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot), which makes the result unique for a given row lattice.
    """
    basis: list[list[int]] = []
    for row in matrix:
        _hnf_insert(basis, list(map(operator.index, row)))
    for k in range(len(basis)):
        p = next(j for j, x in enumerate(basis[k]) if x)
        if basis[k][p] < 0:
            basis[k] = [-x for x in basis[k]]
        for i in range(k):
            q = basis[i][p] // basis[k][p]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return tuple(tuple(row) for row in basis)


def _hnf_insert(basis: list[list[int]], v: list[int]) -> None:
    while True:
        j = next((k for k, x in enumerate(v) if x), None)
        if j is None:
            return
        pos = 0
        while pos < len(basis):
            pj = next(k for k, x in enumerate(basis[pos]) if x)
            if pj >= j:
                break
            pos += 1
        if pos == len(basis) or next(k for k, x in enumerate(basis[pos]) if x) > j:
            basis.insert(pos, v)
            return
        b = basis[pos]
        x, y, g = _xgcd(b[j], v[j])
        newb = [x * bb + y * vv for bb, vv in zip(b, v)]
        newv = [(v[j] // g) * bb - (b[j] // g) * vv for bb, vv in zip(b, v)]
        basis[pos] = newb
        v = newv


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g




def parallelepiped_points_box(gens, rank):
    """Lattice points of {sum t_i g_i : 0 <= t_i < 1} for independent gens.

    Walks the bounding box of the parallelepiped and keeps the points
    whose coordinates in the generators, from an exact rational solve,
    all lie in [0, 1).
    """
    lows = [sum(min(g[j], 0) for g in gens) for j in range(rank)]
    highs = [sum(max(g[j], 0) for g in gens) for j in range(rank)]
    points = set()
    for x in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        coords = solve_rational(gens, x)
        if coords is not None and all(0 <= t < 1 for t in coords):
            points.add(tuple(x))
    return points


def parallelepiped_points_smith(gens):
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


def simplicial_cover_by_faces(cone):
    """Cover of a pointed cone by simplicial subcones spanned by its rays.

    A cone whose rays are independent is its own cover; any other is
    coned from its first ray over the covers of its facets that miss it,
    the facets taken from ``Cone.faces()`` by dimension.
    """
    rays = cone.rays
    if matrix_rank(rays) == len(rays):
        return {rays}
    apex = rays[0]
    out = set()
    dim = cone.dim()
    for facet in cone.faces():
        if facet.dim() != dim - 1 or apex in facet.rays:
            continue
        for piece in simplicial_cover_by_faces(facet):
            out.add(tuple(sorted(set(piece) | {apex})))
    return out


def local_cone(cone):
    """A pointed cone in Hermite coordinates of its saturated span, where it
    is full-dimensional, with that span."""
    span = saturated_span(cone.rays)
    return Cone.from_rays([hermite_coordinates(span, r) for r in cone.rays], len(span)), span


def pointed_quotient(cone):
    """The quotient of a cone by its lineality, as a pointed cone, with the
    rows that lift its coordinates back: the Smith form of the lineality
    basis splits off the units."""
    u = len(cone.lineality)
    snf = smith_normal_form(cone.lineality)
    projected = [tuple(sum(x[i] * snf.right[i][j] for i in range(len(x)))
                       for j in range(u, len(x))) for x in cone.rays]
    return Cone.from_rays(projected, cone.ambient_rank - u), snf.right_inverse[u:]


def pointed_hilbert_basis_contains_sieve(cone):
    """Irreducible lattice points of the pointed part of a cone, by
    cone-membership tests.

    A cone with lineality is replaced by its :func:`pointed_quotient`,
    whose points are lifted back at the end.  The candidates are the rays
    and the parallelepiped points of :func:`simplicial_cover_by_faces`, in
    Hermite coordinates of the saturated span.  Taken by increasing grade
    (the sum of the facet normals), a candidate h is kept unless
    ``local.contains(h - c)`` for a kept c of smaller grade.  Returns the
    kept points in ambient coordinates, like ``hilbert_basis``.
    """
    if cone.lineality:
        pointed, section = pointed_quotient(cone)
        return [tuple(sum(g[i] * section[i][j] for i in range(len(g)))
                      for j in range(cone.ambient_rank))
                for g in pointed_hilbert_basis_contains_sieve(pointed)]
    if not cone.rays:
        return []
    local, span = local_cone(cone)
    k = len(span)
    candidates = set(local.rays)
    for piece in simplicial_cover_by_faces(local):
        candidates |= parallelepiped_points_smith(piece)
    candidates.discard((0,) * k)
    grade_vec = tuple(sum(col) for col in zip(*local.facet_normals))
    grade = {x: pairing(grade_vec, x) for x in candidates}
    kept = []
    for h in sorted(candidates, key=lambda x: (grade[x], x)):
        if not any(grade[c] < grade[h] and local.contains(sub(h, c)) for c in kept):
            kept.append(h)
    return [tuple(sum(h[i] * span[i][j] for i in range(k)) for j in range(cone.ambient_rank))
            for h in kept]


def fan_closure_all_face_pairs(cones, ambient_rank):
    """Face closure of a list of strongly convex cones, or None if it is not a fan.

    Checks every pair of cones of the face closure: their intersection
    must be a face of both.  Returns the closure sorted by (dim, rays).
    """
    closure = {}
    for c in cones:
        for f in c.faces():
            closure[f.key()] = f
    if not closure:
        zero = Cone.zero(ambient_rank)
        closure[zero.key()] = zero
    ordered = sorted(closure.values(), key=lambda c: (c.dim(), c.rays))
    for a, b in combinations(ordered, 2):
        meet = a.intersect(b)
        if not (meet.is_face_of(a) and meet.is_face_of(b)):
            return None
    return tuple(ordered)


def maximal_cones_all_pairs(cones):
    """The cones of a face-closed list that are not a face of another cone of it."""
    return tuple(c for c in cones if not any(c is not d and c.is_face_of(d) for d in cones))


def incidence_by_pairings(cone):
    """Each facet normal of a cone with the set of the cone's rays it
    vanishes on, by pairing every normal with every ray."""
    return tuple(
        (a, frozenset(r for r in cone.rays if pairing(a, r) == 0)) for a in cone.facet_normals
    )


def pseudo_manifold_by_contains(fan):
    """Certificate B of ``Fan.from_cones``, with the first cone's ray sum
    tested by :meth:`Cone.contains` against each other maximal cone."""
    rank, maximal = fan.ambient_rank, fan.maximal_cones()
    if rank < 2 or not all(c.is_simplex() and c.dim() == rank for c in maximal):
        return False
    ray_sums = {c: tuple(map(sum, zip(*c.rays))) for c in maximal}
    for sides in fan._facet_walls().values():
        if len(sides) != 2:
            return False
        (a, _), (_, other) = sides
        if pairing(a, ray_sums[other]) >= 0:
            return False
    return not any(c.contains(ray_sums[maximal[0]]) for c in maximal[1:])


def class_group_smith(fan):
    """The class group of a fan whose rays span, from the Smith form of the
    ray matrix: free rank #rays - rank, torsion the invariant factors > 1."""
    snf = smith_normal_form(fan.rays)
    if snf.rank != fan.ambient_rank:
        raise PreconditionError(
            "rays do not span the ambient space; split off the torus factor first"
        )
    return len(fan.rays) - snf.rank, tuple(x for x in snf.diagonal if x > 1)


def fan_from_document_per_cone(doc):
    """A parsed fan document validated into a fan, each cone built from its
    listed rays by ``Cone.from_rays`` and checked, whether or not the rays
    are independent."""
    listed = {i for idxs in doc.cones for i in idxs}
    for idx, ray in enumerate(doc.rays):
        if not any(ray):
            raise FanDocumentError(f"ray {idx} is zero")
        if not is_primitive(ray):
            raise FanDocumentError(f"ray {idx} is not primitive")
        if idx not in listed:
            raise FanDocumentError(f"ray {idx} is not listed in any cone")
    cones = []
    for cone_idx, idxs in enumerate(doc.cones):
        cone = Cone.from_rays([doc.rays[i] for i in idxs], doc.rank)
        if not cone.is_strongly_convex():
            raise FanDocumentError(f"cone {cone_idx} is not strongly convex")
        for i in idxs:
            if doc.rays[i] not in cone.rays:
                raise FanDocumentError(f"ray {i} is not an extremal ray of cone {cone_idx}")
        cones.append(cone)
    return Fan.from_cones(cones, doc.rank)


def fan_coordinate_semigroup_contains_sieve(fan):
    """The Hilbert basis of the dual of a fan's support cone, sieved by
    :func:`pointed_hilbert_basis_contains_sieve` whatever the support cone is,
    with the dual's lineality basis as the units."""
    dual = fan.support_cone().cone.dual()
    return AffineSemigroup(dual, sorted(pointed_hilbert_basis_contains_sieve(dual)),
                           dual.lineality)


def verdict_two_smoothness_passes(fan):
    """The fields of ``Fan.report`` that the verdict decides, with smoothness
    decided twice: on every maximal cone of the fan, and then again on the
    maximal cones of the reduced fan, whose least singular face is the detail.

    Returns (smooth, quasi_affine, failed_step, detail, torus_rank,
    class_rank, class_torsion); the class group is the Smith form's and the
    faces are the frontier walk's.
    """
    reduced, k, _ = fan.split_torus_factor()
    class_rank, torsion = class_group_smith(reduced)
    if not all(is_smooth_smith(c) for c in fan.maximal_cones()):
        c = min((f for m in reduced.maximal_cones() if not is_smooth_smith(m)
                 for f in faces_frontier(m) if not is_smooth_smith(f)),
                key=lambda f: (f.dim(), f.rays))
        return False, False, "smoothness", f"cone {c!r} is singular", k, None, None
    if class_rank or torsion:
        detail = f"class group has rank {class_rank} and torsion {list(torsion)}"
        return True, False, "class_group", detail, k, class_rank, torsion
    return True, True, None, None, k, class_rank, torsion


def is_smooth_all_cones(cones):
    return all(c.is_smooth() for c in cones)


def euler_characteristic_all_cones(cones, ambient_rank):
    return sum(1 for c in cones if c.dim() == ambient_rank)


def is_complete_all_cones(cones, ambient_rank):
    """Completeness of a fan from its full face-closed cone list.

    Some cone is full-dimensional, every cone is a face of a
    full-dimensional one, and every codimension-one cone is a facet of
    exactly two full-dimensional cones; faces are tested with is_face_of.
    """
    n = ambient_rank
    if n == 0:
        return True
    full = [c for c in cones if c.dim() == n]
    if not full:
        return False
    for c in cones:
        if c.dim() < n and not any(c.is_face_of(big) for big in full):
            return False
    for wall in (c for c in cones if c.dim() == n - 1):
        if sum(1 for big in full if wall.is_face_of(big)) != 2:
            return False
    return True


def semigroup_generates(semigroup, point):
    """Whether a point is a sum of generators plus an integer unit combination.

    Graded search: a positive functional (sum of the cone's facet
    normals) vanishes exactly on the unit sublattice, so recursion on
    the grade terminates and the grade-zero residue only needs a lattice
    membership check against the units.
    """
    grade_vec = tuple(sum(col) for col in zip(*semigroup.cone.facet_normals)) \
        if semigroup.cone.facet_normals else (0,) * semigroup.rank
    units = semigroup.units
    gens = semigroup.generators

    def in_unit_lattice(x):
        if not any(x):
            return True
        if not units:
            return False
        coords = solve_rational(units, x)
        return coords is not None and all(c.denominator == 1 for c in coords)

    memo = {}

    def search(x):
        if x in memo:
            return memo[x]
        g = pairing(grade_vec, x)
        if g == 0:
            result = in_unit_lattice(x)
        elif g < 0:
            result = False
        else:
            result = False
            for m in gens:
                rest = sub(x, m)
                if semigroup.contains(rest) and search(rest):
                    result = True
                    break
        memo[x] = result
        return result

    return search(tuple(point))


def semigroup_generates_without(semigroup, omitted, point):
    """Like semigroup_generates but with one generator removed."""

    class _View:
        rank = semigroup.rank
        cone = semigroup.cone
        units = semigroup.units
        generators = tuple(g for g in semigroup.generators if g != tuple(omitted))
        contains = staticmethod(semigroup.contains)

    return semigroup_generates(_View, point)


def is_root_generators(semigroup, ray, degree):
    """Whether ``degree`` is an admissible derivation degree along ``ray``.

    Straight from the definition: the degree lies outside the semigroup
    while degree + m stays inside for every generator m off the wall
    orthogonal to the ray.  Generators suffice, because an element off
    the wall decomposes into generators at least one of which is off the
    wall, and adding semigroup elements preserves membership.
    """
    rho = tuple(ray)
    assert rho in semigroup.cone.dual().rays, "not an extremal ray of the dual cone"
    e = tuple(degree)
    if semigroup.contains(e):
        return False
    return all(
        semigroup.contains(add(e, m)) for m in semigroup.generators if pairing(m, rho) > 0
    )


def enumerate_roots_box(semigroup, ray, radius):
    """Admissible degrees in [-radius, radius]^rank by testing every box point."""
    return sorted(
        e for e in box_points(semigroup.rank, radius) if is_root_generators(semigroup, ray, e)
    )


def naive_derivative(ray, degree, element_terms):
    """Termwise image of the derivation formula, straight from the definition."""
    out = {}
    for m, c in element_terms:
        w = pairing(m, ray)
        if w:
            key = tuple(a + b for a, b in zip(degree, m))
            out[key] = out.get(key, Fraction(0)) + c * w
    return {k: v for k, v in out.items() if v}


def enumerate_roots_slice(semigroup, ray, radius):
    """Admissible degrees in [-radius, radius]^rank by walking the root hyperplane.

    The last coordinate with a nonzero ray entry is solved for from
    <e, ray> = -g, so every one of the (2 * radius + 1)^(rank - 1) slice
    points is tested against the other extremal rays and the lineality
    of the dual cone.
    """
    rho = tuple(ray)
    sigma = semigroup.cone.dual()
    assert rho in sigma.rays, "not an extremal ray of the dual cone"
    target = -gcd(*(pairing(m, rho) for m in semigroup.generators + semigroup.units))
    others = [r for r in sigma.rays if r != rho]
    j = max(i for i, x in enumerate(rho) if x)
    coefficients = rho[:j] + rho[j + 1:]
    hits = []
    for free in box_points(semigroup.rank - 1, radius):
        q, rem = divmod(target - pairing(free, coefficients), rho[j])
        if rem or not -radius <= q <= radius:
            continue
        e = free[:j] + (q,) + free[j:]
        if all(pairing(e, r) >= 0 for r in others) and all(
            pairing(e, l) == 0 for l in sigma.lineality
        ):
            hits.append(e)
    return sorted(hits)


def wall_generators_hilbert_basis(family):
    """Generators of the wall semigroup of a ``GaActionFamily``, by a second Hilbert basis.

    The wall is the face of the ambient semigroup's cone orthogonal to
    the chosen ray; its semigroup is computed from scratch.
    """
    wall = hilbert_basis(orthogonal_face(family.chosen_ray, family.semigroup.cone))
    assert not wall.units
    return wall.generators


def nilpotency_order_by_application(derivation, exponent, cap=NILPOTENCY_CAP):
    """``HomogeneousDerivation.nilpotency_order`` by applying the derivation
    to the monomial until the result is zero."""
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    m = vector(exponent)
    if not derivation.ambient.contains(m):
        raise PreconditionError(f"{m} is not in the ambient semigroup")
    current = AlgebraElement.monomial(m)
    for k in range(1, cap + 1):
        current = derivation(current)
        if current.is_zero():
            return k
    raise NilpotencyCapError(f"monomial {m} not annihilated within {cap} applications")


def fixes_boundary_by_projection(derivation, boundary_rays):
    """Whether a derivation sends every generator of its ambient semigroup to
    an element whose projection onto the wall of each boundary ray is zero.

    This is the check ``build_ga_actions`` ran on each of its derivations.
    An image that leaves the semigroup, or has a term pairing negatively
    with a boundary ray, fails it.
    """
    semigroup = derivation.ambient
    try:
        for m in semigroup.generators:
            image = derivation(AlgebraElement.monomial(m))
            for rho in boundary_rays:
                if not boundary_projection(rho, semigroup, image).is_zero():
                    return False
    except IntegrityError:
        return False
    return True
