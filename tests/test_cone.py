import random
from fractions import Fraction
from itertools import combinations

import pytest

import torikit.cone as cone_module
import torikit.lattice as lattice_module
from torikit import Cone, orthogonal_face
from torikit.cone import _cross_checked, _dd, _incidence
from torikit.errors import IntegrityError, PreconditionError
from torikit.lattice import add, adjugate, determinant, matrix_rank, neg, pairing

from conftest import counting, random_pointed_cone, random_shear
from _oracles import (
    box_points,
    cone_contains_bruteforce,
    cone_from_rays_dd,
    dd_recomputing_zero_sets,
    faces_frontier,
    incidence_by_pairings,
    is_face_of_facet_walk,
    is_smooth_smith,
)


def test_canonicalize_drops_interior_generators():
    c = Cone.from_rays([(2, 0), (0, 1), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.lineality == ()


def test_canonicalize_empty_is_zero_cone():
    c = Cone.from_rays([], 2)
    assert c == Cone.zero(2)
    assert c.rays == () and c.lineality == ()


def test_canonicalize_opposite_rays_record_lineality():
    c = Cone.from_rays([(1, 0), (-1, 0)])
    assert c.rays == ()
    assert c.lineality == ((1, 0),)
    assert c.contains((5, 0)) and c.contains((-5, 0))
    assert not c.contains((0, 1))


def test_dual_orthant_self_dual():
    c = Cone.from_rays([(1, 0), (0, 1)])
    assert c.dual().rays == ((0, 1), (1, 0))


def test_dual_example_with_box_oracle():
    c = Cone.from_rays([(1, 0), (1, 2)])
    d = c.dual()
    assert d.rays == ((0, 1), (2, -1))
    # exactly the box points nonnegative on both generators lie in the dual
    for u in box_points(2, 4):
        expected = pairing(u, (1, 0)) >= 0 and pairing(u, (1, 2)) >= 0
        assert cone_contains_bruteforce(d.rays, u) == expected


def test_dual_of_zero_cone_is_everything():
    d = Cone.zero(2).dual()
    assert d.rays == ()
    assert len(d.lineality) == 2
    assert d.contains((-7, 13))


def test_strongly_convex():
    assert Cone.from_rays([(1, 0), (0, 1)]).is_strongly_convex()
    assert not Cone.from_rays([(1, 0), (-1, 0), (0, 1)]).is_strongly_convex()
    assert Cone.zero(2).is_strongly_convex()


def test_smooth_cone():
    assert Cone.from_rays([(1, 0), (0, 1)]).is_smooth()
    assert not Cone.from_rays([(1, 0), (1, 2)]).is_smooth()
    assert Cone.zero(3).is_smooth()
    with pytest.raises(PreconditionError):
        Cone.from_rays([(1, 0), (-1, 0)]).is_smooth()


def test_simplex():
    assert Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).is_simplex()
    assert not Cone.from_rays([(1, 0), (0, 1), (-1, -1)]).is_simplex()
    assert Cone.zero(2).is_simplex()


def test_is_face_of_examples():
    orthant = Cone.from_rays([(1, 0), (0, 1)])
    assert Cone.from_rays([(1, 0)], 2).is_face_of(orthant)
    assert not Cone.from_rays([(1, 1)], 2).is_face_of(orthant)
    assert orthant.is_face_of(orthant)
    assert Cone.zero(2).is_face_of(orthant)


def test_diagonal_ray_is_not_a_face_box_oracle():
    # no supporting normal in a small box cuts out the diagonal ray
    orthant = Cone.from_rays([(1, 0), (0, 1)])
    diag = (1, 1)
    for u in box_points(2, 4):
        if pairing(u, (1, 0)) < 0 or pairing(u, (0, 1)) < 0:
            continue  # not a supporting normal
        if pairing(u, diag) != 0:
            continue
        # u vanishes on the diagonal; it must then vanish on a generator too
        assert pairing(u, (1, 0)) == 0 or pairing(u, (0, 1)) == 0


def test_orthogonal_face_examples():
    orthant_dual = Cone.from_rays([(1, 0), (0, 1)])
    f = orthogonal_face((1, 0), orthant_dual)
    assert f.rays == ((0, 1),)

    a1_dual = Cone.from_rays([(0, 1), (2, -1)])
    f2 = orthogonal_face((1, 2), a1_dual)  # (1,2) is a ray of the primal cone
    assert f2.rays == ((2, -1),)

    assert orthogonal_face((1,), Cone.from_rays([(1,)])).rays == ()


def test_orthogonal_face_box_oracle():
    a1_dual = Cone.from_rays([(0, 1), (2, -1)])
    face = orthogonal_face((1, 0), a1_dual)
    for u in box_points(2, 5):
        on_wall = pairing(u, (1, 0)) == 0 and cone_contains_bruteforce(a1_dual.rays, u)
        assert face.contains(u) == on_wall


def test_dual_dual_involution(rng):
    for _ in range(60):
        rank = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randint(0, rank + 2))
        ]
        c = Cone.from_rays(gens, rank)
        again = c.dual().dual()
        assert again == c


def test_hv_cross_consistency(rng):
    for _ in range(40):
        rank = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 1))
        ]
        c = Cone.from_rays(gens, rank)
        all_gens = list(c.rays) + [l for l in c.lineality] + [tuple(-x for x in l) for l in c.lineality]
        for p in box_points(rank, 3):
            assert c.contains(p) == cone_contains_bruteforce(all_gens, p), (gens, p)


def test_face_lattice_properties(rng):
    for _ in range(25):
        c = random_pointed_cone(rng)
        faces = c.faces()
        for f in faces:
            assert f.is_face_of(c)
            assert f.is_strongly_convex()
            for g in f.faces():
                # transitivity: a face of a face is a face
                assert g.is_face_of(c)
        assert c in faces
        if c.rays:
            assert Cone.zero(c.ambient_rank) in faces


def test_smooth_implies_simplex(rng):
    for _ in range(40):
        c = random_pointed_cone(rng)
        if c.is_smooth():
            assert c.is_simplex()


def test_faces_of_affine_plane_cone():
    faces = Cone.from_rays([(1, 0), (0, 1)]).faces()
    assert len(faces) == 4
    dims = sorted(f.dim() for f in faces)
    assert dims == [0, 1, 1, 2]


def _independent_generators(rng, kind):
    """A random list of linearly independent generators of rank 1-5, up to the full rank.

    ``small``: entries in [-3, 3], some scaled so they are not primitive;
    ``unimodular``: rows of a sheared identity (a smooth cone);
    ``sheared``: small rows under a long shear, so the entries grow large.
    """
    rank = rng.randint(1, 5)
    count = rng.randint(0, rank) if rng.random() < 0.4 else rank
    while True:
        if kind == "unimodular":
            rows = random_shear(rng, [tuple(int(i == j) for j in range(rank)) for i in range(rank)],
                                rank, 3 * rank) if rank > 1 else [(rng.choice([1, -1]),)]
            gens = rng.sample(rows, count)
        else:
            gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
            if kind == "sheared" and rank > 1:
                gens = random_shear(rng, gens, rank, 4 * rank)
        if matrix_rank(gens) == count:
            break
    if gens and rng.random() < 0.3:
        i = rng.randrange(len(gens))
        gens[i] = tuple(2 * x for x in gens[i])
    return rank, gens


PINNED_SIMPLICIAL = [
    (3, [(1, 0, 0), (0, 1, 0), (17, 23, 31)]),
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 5, 7, 11)]),
    (4, [(1, 0, 0, 0), (3, 1, 0, 0), (3, 3, 1, 0), (3, 3, 3, 1)]),
    (2, [(0, 1), (1, 0)]),
    (3, [(17, 23, 31), (0, 1, 0)]),
    (5, [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]),
    (3, []),
    (4, [(1, 1031, 2, 0), (0, 1, 4099, 3)]),
    (3, [(2, 1001, 0), (0, 1001, 2)]),
]


def test_simplicial_closed_form_agrees_with_double_description(rng):
    cases = list(PINNED_SIMPLICIAL)
    for i in range(300):
        cases.append(_independent_generators(rng, ("small", "unimodular", "sheared")[i % 3]))
    full = lower = negative = smooth = large = 0
    for rank, gens in cases:
        fast = Cone.from_rays(gens, rank)
        slow = cone_from_rays_dd(gens, rank)
        assert fast.key() == slow.key(), gens
        assert fast.dual().key() == slow.dual().key(), gens
        assert [f.key() for f in fast.faces()] == [f.key() for f in faces_frontier(slow)], gens
        assert [f.dim() for f in fast.faces()] == [matrix_rank(f.rays) for f in faces_frontier(slow)]
        assert fast.dim() == matrix_rank(slow.rays) == len(gens)
        assert fast.is_smooth() == is_smooth_smith(slow), gens
        if len(gens) == rank:
            full += 1
            negative += determinant(gens) < 0
        else:
            lower += 1
        smooth += fast.is_smooth()
        large += any(abs(x) > 16 for g in gens for x in g)
    assert full >= 150 and lower >= 40 and negative >= 60 and smooth >= 80 and large >= 60


CROSS_CHECK = "generator/normal cross-validation failed"


def _dd_with_a_wrong_normal(rank, inequalities, equations):
    lin, rays = _dd(rank, inequalities, equations)
    return lin, (neg(rays[0]),) + rays[1:]


def _adjugate_with_a_wrong_normal(rows):
    # column 0 of the adjugate is the normal opposite ray 0
    det, adj = adjugate(rows)
    return det, tuple((-row[0],) + row[1:] for row in adj)


def test_every_built_dual_is_cross_checked(monkeypatch):
    orthant = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    square = Cone.from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    simplex = Cone.from_rays([(1, 0, 0), (0, 1, 0), (3, 5, 11)])
    # raw-constructor cones whose duals nothing has read yet
    facets = [f for f in square.faces() if f.dim() == 2]
    wall = orthogonal_face((1, 0, 0), orthant.dual())
    square_dual, simplex_dual = square.dual(), simplex.dual()
    assert len(facets) == 4 and wall.rays == ((0, 0, 1), (0, 1, 0))

    calls = []
    monkeypatch.setattr(cone_module, "_dd",
                        lambda *args: calls.append("_dd") or _dd_with_a_wrong_normal(*args))
    monkeypatch.setattr(cone_module, "adjugate",
                        lambda rows: calls.append("adjugate") or _adjugate_with_a_wrong_normal(rows))
    # the double-description path of from_rays and its full simplex build
    # their duals eagerly
    for gens in ([(1, 0), (0, 1), (1, 1)], [(1, 0, 0), (0, 1, 0), (3, 5, 11)]):
        with pytest.raises(IntegrityError, match=CROSS_CHECK):
            Cone.from_rays(gens)
    # a dual that was built knows its dual, and reading it builds nothing
    calls.clear()
    assert square_dual.dual() is square and simplex_dual.dual() is simplex
    assert square_dual.facet_normals == square.rays and simplex_dual.facet_normals == simplex.rays
    assert calls == []
    # every other cone builds its dual on the first read, and that read fails
    unread = [
        Cone.from_rays([(1, 0, 0), (3, 5, 11)]),
        *facets,
        wall,
    ]
    for cone in unread:
        with pytest.raises(IntegrityError, match=CROSS_CHECK):
            cone.facet_normals
        assert cone._dual is None

    # a normal or an equation that is nonzero on the lineality fails, even
    # where it is nonnegative on every ray and on the lineality itself
    for wrong in ((((0, 0, 1),), ((1, 1, 0),)), (((1, 0, 1),), ((0, 1, 0),))):
        monkeypatch.setattr(cone_module, "_dd", lambda *args, wrong=wrong: wrong)
        with pytest.raises(IntegrityError, match=CROSS_CHECK):
            Cone(3, [(0, 1, 0)], [(1, 0, 0)]).dual()
    monkeypatch.setattr(cone_module, "_dd", _dd)
    assert Cone(3, [(0, 1, 0)], [(1, 0, 0)]).dual() == Cone(3, [(0, 1, 0)], [(0, 0, 1)])


def _adjugate_with_a_merged_normal(rows):
    # column 0 plus column 1: nonnegative on every ray, but nonzero on ray 1
    det, adj = adjugate(rows)
    return det, tuple((row[0] + row[1],) + row[1:] for row in adj)


def test_a_simplex_normal_must_vanish_off_its_opposite_ray(monkeypatch):
    gens = [(1, 0, 0), (0, 1, 0), (3, 5, 11)]
    det, adj = _adjugate_with_a_merged_normal(sorted(gens))
    merged = Cone(3, sorted({tuple(x * (1 if det > 0 else -1) for x in col)
                             for col in zip(*adj)}))
    # a nonnegativity test alone would accept the merged normal
    assert _cross_checked(sorted(gens), (), merged) is merged
    monkeypatch.setattr(cone_module, "adjugate", _adjugate_with_a_merged_normal)
    with pytest.raises(IntegrityError, match=CROSS_CHECK):
        Cone.from_rays(gens)
    raw = Cone(3, sorted(gens))
    with pytest.raises(IntegrityError, match=CROSS_CHECK):
        raw.dual()
    assert raw._dual is None and raw._facets is None


def _full_simplices(rng, count):
    """Seeded lists of n independent generators in rank n = 1-5: small,
    unimodular and sheared ones, and ones with |det| up to 10^9."""
    kinds = ("small", "unimodular", "sheared", "large")
    out = []
    while len(out) < count:
        kind = kinds[len(out) % 4]
        if kind == "large":
            rank = rng.randint(1, 5)
            last = [rng.randint(-9, 9) for _ in range(rank - 1)] + [rng.randint(10**3, 10**9)]
            gens = [tuple(int(i == j) for j in range(rank)) for i in range(rank - 1)]
            steps = rng.randint(0, 2 * rank) if rank > 1 else 0
            gens = random_shear(rng, gens + [tuple(last)], rank, steps)
            gens[0] = tuple(-x for x in gens[0]) if rng.random() < 0.5 else gens[0]
        else:
            rank, gens = _independent_generators(rng, kind)
            if len(gens) != rank:
                continue
        out.append((rank, gens))
    return out


def test_kept_facet_pairs_match_the_pairing_oracle(rng):
    negative = unimodular = large = 0
    for i, (rank, gens) in enumerate(_full_simplices(rng, 240)):
        built = Cone.from_rays(gens, rank)
        # the raw constructor keeps its pairs on the first read of the dual
        for cone in (built, Cone(rank, built.rays)):
            assert cone._facet_pairs() is not None
            assert _incidence(cone) == incidence_by_pairings(cone), gens
            assert cone.is_smooth() == is_smooth_smith(cone), gens
            assert [a for a, _ in cone._facets] == list(cone.facet_normals)
        det = determinant(built.rays)
        negative += det < 0
        unimodular += abs(det) == 1
        large += abs(det) > 10**6
    assert negative >= 60 and unimodular >= 60 and large >= 30


def test_every_full_simplex_keeps_its_facet_pairs(monkeypatch, rng):
    # the double description reaches the quadrant; the adjugate of its rays
    # gives the pairs, and the dual it built stays the dual
    quadrant = Cone.from_rays([(2, 0), (0, 1), (1, 1)])
    dual = quadrant._dual
    assert quadrant._facets is None
    smith = counting(lattice_module, "smith_normal_form")
    hermite = counting(cone_module, "hermite_normal_form")
    pairings = counting(cone_module, "pairing")
    monkeypatch.setattr(lattice_module, "smith_normal_form", smith)
    monkeypatch.setattr(cone_module, "hermite_normal_form", hermite)
    monkeypatch.setattr(cone_module, "pairing", pairings)
    assert quadrant.is_smooth() and _incidence(quadrant)
    assert smith.calls == hermite.calls == pairings.calls == 0
    monkeypatch.undo()
    assert quadrant._facets == Cone.from_rays(quadrant.rays)._facets
    assert quadrant.dual() is dual and dual.rays == tuple(a for a, _ in quadrant._facets)
    assert _incidence(quadrant) == incidence_by_pairings(quadrant)
    # a dual built another way must have the adjugate's normals as its rays
    wrong = Cone(2, quadrant.rays)
    wrong._link(Cone(2, [(0, 1), (1, 0), (1, 1)]))
    with pytest.raises(IntegrityError, match=CROSS_CHECK):
        wrong._facet_pairs()
    # whichever path built a full simplex, and for its dual
    for rank, gens in _full_simplices(rng, 80):
        built = Cone.from_rays(gens, rank)
        inner = tuple(map(sum, zip(*gens)))
        by_dd = Cone.from_rays(gens + [inner], rank)
        raw = Cone(rank, built.rays)
        simplices = [by_dd, by_dd.dual(), raw, raw.dual(), built.intersect(built)]
        for cone in simplices + [f for f in by_dd.faces() if f.dim() == rank]:
            assert cone._facet_pairs() is not None
            assert _incidence(cone) == incidence_by_pairings(cone), gens
            assert cone.is_smooth() == is_smooth_smith(cone), gens
        assert by_dd == built and by_dd._facets == built._facets
        assert by_dd.dual()._facet_pairs() == built.dual()._facet_pairs()


def test_the_dual_of_the_dual_is_the_cone(rng):
    # cones from every path: the adjugate, a lower-dimensional simplex, the
    # double description of from_rays (with lineality too), and raw faces,
    # orthogonal faces and intersections
    orthant = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    square = Cone.from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    simplex = Cone.from_rays([(1, 0, 0), (0, 1, 0), (3, 5, 11)])
    cones = [
        orthant, square, simplex,
        Cone.from_rays([(1, 0, 0), (3, 5, 11)]),
        Cone.from_rays([(2, 0), (0, 1), (1, 1)]),
        Cone.from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
        *square.faces(), *Cone(3, simplex.rays).faces(),
        orthogonal_face((1, 0, 0), orthant.dual()),
        orthogonal_face((1, 0, 1), square.dual()),
        square.intersect(orthant), square.intersect(simplex),
    ]
    for cone in cones + [random_pointed_cone(rng, max_rank=4) for _ in range(60)]:
        dual = cone.dual()
        assert dual.dual() is cone and cone.dual() is dual
        gens = dual.rays + dual.lineality + tuple(map(neg, dual.lineality))
        built = cone_from_rays_dd(gens, cone.ambient_rank)
        assert built == dual and built.dual() == cone, cone
        for c in (cone, dual):
            assert c.dim() == matrix_rank(c.lineality + c.rays), c


def test_independent_generators_build_no_dual(monkeypatch, rng):
    # fewer generators than the rank build no halfspaces; as many make one
    # adjugate, which also decides their independence, and no rank test,
    # and keep its facet pairs, from which the dual is built when it is read
    calls = []
    adjugate_, matrix_rank_ = cone_module.adjugate, cone_module.matrix_rank
    monkeypatch.setattr(cone_module, "_dd", lambda *args: calls.append("_dd"))
    monkeypatch.setattr(cone_module, "adjugate",
                        lambda rows: calls.append("adjugate") or adjugate_(rows))
    monkeypatch.setattr(cone_module, "matrix_rank",
                        lambda rows: calls.append("matrix_rank") or matrix_rank_(rows))
    cases = list(PINNED_SIMPLICIAL)
    for i in range(60):
        cases.append(_independent_generators(rng, ("small", "unimodular", "sheared")[i % 3]))
    full = lower = 0
    for rank, gens in cases:
        calls.clear()
        cone = Cone.from_rays(gens, rank)
        if len(gens) == rank:
            assert calls == ["adjugate"] and cone._dual is None, gens
            assert cone._facets is not None and cone.dim() == rank, gens
            dual = cone.dual()
            assert calls == ["adjugate"] and dual.dual() is cone, gens
            assert dual == cone_from_rays_dd(gens, rank).dual(), gens
            full += 1
        else:
            assert calls == ["matrix_rank"] and cone._dual is None, gens
            lower += 1
    assert full >= 30 and lower >= 15


def _no_dual_read(self):
    raise AssertionError("a dual was read")


def test_is_face_of_a_simplicial_cone_matches_the_facet_walk(rng, monkeypatch):
    answers = {True: 0, False: 0}
    lineality_mismatches = 0
    for i in range(150):
        rank, gens = _independent_generators(rng, ("small", "unimodular", "sheared")[i % 3])
        other = Cone.from_rays(gens, rank)
        assert other.is_simplex()
        rays = other.rays
        candidates = [Cone(rank, subset) for k in range(len(rays) + 1)
                      for subset in combinations(rays, k)]
        if len(rays) >= 2:
            # a ray inside a 2-face, alone and next to the rays of that face
            inner = add(rays[0], rays[1])
            candidates += [Cone.from_rays([inner], rank), Cone.from_rays([inner, rays[0]], rank),
                           Cone.from_rays([inner, *rays[1:]], rank)]
        if rays:
            line = Cone.from_rays([rays[0], neg(rays[0])], rank)
            candidates += [line, Cone.from_rays([rays[0], neg(rays[0]), *rays[1:]], rank)]
            lineality_mismatches += 2
        if rank > len(rays):
            # all the rays of other, and a line outside their span
            units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
            extra = next(e for e in units if matrix_rank(rays + (e,)) > len(rays))
            candidates.append(Cone.from_rays([*rays, extra, neg(extra)], rank))
            lineality_mismatches += 1
        with monkeypatch.context() as m:
            # the closed form reads no facet normal
            m.setattr(Cone, "dual", _no_dual_read)
            closed_form = [cone.is_face_of(other) for cone in candidates]
        for cone, answer in zip(candidates, closed_form):
            expected = is_face_of_facet_walk(cone, other)
            assert answer == expected, (cone, other)
            answers[expected] += 1
    assert answers[True] >= 1000 and answers[False] >= 300 and lineality_mismatches >= 250


def test_face_queries_on_non_simplicial_cones_match_the_facet_walk():
    # more generators than the rank, some with a line added; the candidates
    # are the cones over every subset of the rays, with the lineality of the
    # cone and with none
    rng = random.Random(1819)
    answers = {True: 0, False: 0}
    pointed = with_lineality = 0
    while pointed < 60:
        rank = rng.randint(2, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(rank + 1, rank + 3))]
        if rng.random() < 0.3:
            gens.append(neg(gens[0]))
        other = Cone.from_rays(gens, rank)
        if other.is_simplex():
            continue
        pointed += not other.lineality
        with_lineality += bool(other.lineality)
        _faces_match_the_frontier(other)
        candidates = [Cone(rank, subset, lineality)
                      for lineality in {other.lineality, ()}
                      for k in range(len(other.rays) + 1)
                      for subset in combinations(other.rays, k)]
        for cone in candidates:
            expected = is_face_of_facet_walk(cone, other)
            assert cone.is_face_of(other) == expected, (cone, other)
            answers[expected] += 1
    assert with_lineality >= 100
    assert answers[True] >= 1000 and answers[False] >= 1000
    # faces with their dimensions, and their smoothness, on cones of rank 1-5
    rng = random.Random(29)
    with_lineality = 0
    for _ in range(1500):
        rank = rng.randint(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 3))]
        if rng.random() < 0.3:
            gens.append(neg(gens[0]))
        cone = Cone.from_rays(gens, rank)
        with_lineality += bool(cone.lineality)
        _faces_match_the_frontier(cone)
    assert with_lineality >= 500


def _faces_match_the_frontier(cone):
    faces, expected = cone.faces(), faces_frontier(cone)
    assert [f.key() for f in faces] == [f.key() for f in expected], cone
    assert [f.dim() for f in faces] == [matrix_rank(f.lineality + f.rays) for f in expected]
    if not cone.lineality:
        assert [f.is_smooth() for f in faces] == [is_smooth_smith(f) for f in expected], cone


def _halfspace_list(rng):
    """A seeded (rank, inequalities, equations) of rank 1-5, entries in [-3, 3].

    The inequalities may repeat, come with their opposite or be zero; the
    equations may repeat, depend on each other or equal an inequality.
    Half the lists take entries from [-1, 3], so that many inequalities
    still leave a cone with many rays.
    """
    rank = rng.randint(1, 5)
    low = rng.choice((-3, -1))

    def vec():
        return tuple(rng.randint(low, 3) for _ in range(rank))

    inequalities = [vec() for _ in range(rng.randint(0, 10))]
    if inequalities and rng.random() < 0.4:
        inequalities.append(rng.choice(inequalities))
    if inequalities and rng.random() < 0.4:
        inequalities.append(neg(rng.choice(inequalities)))
    if rng.random() < 0.3:
        inequalities.append((0,) * rank)
    equations = [vec() for _ in range(rng.randint(0, 2))]
    if equations and rng.random() < 0.3:
        equations.append(rng.choice((equations[0], tuple(2 * x for x in equations[0]))))
    if len(equations) >= 2 and rng.random() < 0.3:
        equations.append(add(equations[0], equations[1]))
    if inequalities and rng.random() < 0.3:
        equations.append(rng.choice(inequalities))
    return rank, inequalities, equations


def test_dd_matches_the_zero_set_recomputing_oracle():
    rng = random.Random(1900)
    with_lineality = with_equations = with_rays = 0
    for _ in range(2000):
        rank, inequalities, equations = _halfspace_list(rng)
        lineality, rays = _dd(rank, inequalities, equations)
        assert (lineality, rays) == dd_recomputing_zero_sets(rank, inequalities, equations), (
            rank, inequalities, equations)
        with_lineality += bool(lineality) and bool(rays)
        with_equations += bool(equations) and bool(rays)
        with_rays += len(rays) > rank
    assert with_lineality >= 150 and with_equations >= 350 and with_rays >= 90


@pytest.mark.parametrize("m, d, facets", [
    (8, 4, 20), (12, 4, 54), (9, 5, 30), (16, 4, 104), (40, 3, 76),
])
def test_dd_matches_the_oracle_on_cyclic_polytopes(m, d, facets):
    # the cone over the cyclic polytope C(m, d): its facet count is the
    # one of the upper bound theorem, and back from the facets come the rays
    rays = [tuple(t**i for i in range(d + 1)) for t in range(1, m + 1)]
    lineality, normals = _dd(d + 1, rays, ())
    assert (lineality, normals) == dd_recomputing_zero_sets(d + 1, rays, ())
    assert lineality == () and len(normals) == facets
    back = _dd(d + 1, normals, lineality)
    assert back == dd_recomputing_zero_sets(d + 1, normals, lineality) == ((), tuple(sorted(rays)))


def test_dd_pairs_each_ray_once_per_insertion(monkeypatch):
    # facets to rays of the cone over C(12, 4); recomputing every zero set
    # on each insertion made 30,155 pairings
    rays = [tuple(t**i for i in range(5)) for t in range(1, 13)]
    lineality, normals = _dd(5, rays, ())
    pairings = counting(cone_module, "pairing")
    monkeypatch.setattr(cone_module, "pairing", pairings)
    assert _dd(5, normals, lineality) == ((), tuple(sorted(rays)))
    assert pairings.calls < 2000


def test_non_integer_points_and_generators_are_refused():
    # neither is truncated: (0.5, -0.2) is not in the quadrant, and
    # (0.9, 1) does not make it the quadrant
    quadrant = Cone.from_rays([(1, 0), (0, 1)])
    for point in ((0.5, -0.2), (1.0, 1), ("1", 0), (Fraction(1, 2), 0)):
        with pytest.raises(TypeError):
            quadrant.contains(point)
    for gens in ([(0.9, 1), (1, 0)], [(1, 0), ("2", 1)], [(Fraction(2), 1), (0, 1)]):
        with pytest.raises(TypeError):
            Cone.from_rays(gens)
    assert Cone.from_rays([(True, 0), (0, 1)]) == quadrant
    assert quadrant.contains((True, False))
