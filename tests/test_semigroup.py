import random
from fractions import Fraction
from math import gcd

import pytest

import torikit.cone as cone_module
import torikit.lattice as lattice_module
from torikit import Cone, Fan, semigroup
from torikit.cone import _incidence, orthogonal_face
from torikit.errors import DimensionError, IntegrityError
from torikit.lattice import determinant, hermite_normal_form, matrix_rank, pairing
from torikit.semigroup import (
    AlgebraElement,
    _full_dimensional_quotient,
    _irreducible_points,
    _parallelepiped_points,
    _plane_basis,
    _sieved_points,
    _simplicial_cover,
    boundary_projection,
    fan_coordinate_semigroup,
    hilbert_basis,
)

from conftest import (
    affine_space_fan,
    projective_line_fan,
    punctured_plane_fan,
    random_pointed_cone,
    counting,
    random_shear,
)
from _oracles import (
    box_points,
    local_cone,
    parallelepiped_points_box,
    parallelepiped_points_smith,
    pointed_hilbert_basis_contains_sieve,
    pointed_quotient,
    semigroup_generates,
    semigroup_generates_without,
    simplicial_cover_by_faces,
)


def test_hilbert_basis_orthant():
    s = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)]))
    assert s.generators == ((0, 1), (1, 0))
    assert s.units == ()


def test_hilbert_basis_a1_singularity_dual():
    s = hilbert_basis(Cone.from_rays([(0, 1), (2, -1)]))
    assert s.generators == ((0, 1), (1, 0), (2, -1))
    assert s.units == ()


def test_hilbert_basis_full_line():
    s = hilbert_basis(Cone.zero(1).dual())
    assert s.generators == ()
    assert s.units == ((1,),)


def test_contains_examples():
    orthant = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)]))
    assert orthant.contains((3, 5))
    assert not orthant.contains((-1, 0))
    a1 = hilbert_basis(Cone.from_rays([(0, 1), (2, -1)]))
    # (1,-1) pairs to -1 with the primitive normal (1,2)
    assert pairing((1, -1), (1, 2)) == -1
    assert not a1.contains((1, -1))


def test_hilbert_basis_generates_and_is_minimal(rng):
    for _ in range(30):
        cone = random_pointed_cone(rng, max_rank=3, max_entry=3)
        dual = cone.dual()
        s = hilbert_basis(dual)
        rank = dual.ambient_rank
        for p in box_points(rank, 6, lo=0):
            if s.contains(p):
                assert semigroup_generates(s, p), (dual.rays, p)
            else:
                assert not semigroup_generates(s, p), (dual.rays, p)
        for g in s.generators:
            assert not semigroup_generates_without(s, g, g), (dual.rays, g)


def test_hilbert_basis_elements_lie_in_cone(rng):
    for _ in range(30):
        dual = random_pointed_cone(rng, max_rank=3, max_entry=4).dual()
        s = hilbert_basis(dual)
        for g in s.generators:
            assert s.contains(g)
        for u in s.units:
            assert s.contains(u) and s.contains(tuple(-x for x in u))


def _bench_shaped_cones(rng):
    """Single cones shaped like the hilbert_bases bench documents, |det| <= 60.

    cone(e_1..e_{n-1}, (a_1..a_{n-1}, d)) with every a_i prime to d has
    |det| d; the cone over the lattice quadrilateral (0,0), (m,0), (p,q),
    (0,n) at height one has four rays, so its dual is not simplicial.
    """
    cones = []
    for rank, dets in ((2, (7, 40, 60)), (3, (7, 9, 11)), (4, (3, 4))):
        for d in dets:
            a = tuple(rng.choice([x for x in range(1, 2 * d) if gcd(x, d) == 1])
                      for _ in range(rank - 1))
            basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank - 1)]
            cone = Cone.from_rays(basis + [a + (d,)])
            assert abs(determinant(cone.rays)) == d
            cones.append(cone)
    for m, n in ((2, 2), (3, 2), (4, 3)):
        p, q = rng.choice(((m + 1, n), (m, n + 1)))
        cones.append(Cone.from_rays([(0, 0, 1), (m, 0, 1), (p, q, 1), (0, n, 1)]))
    return cones


def _polytope_cones():
    """The rank-4 cones over the unit cube, the cube of side 2 and the
    octahedron at height one, and their duals.  The cube cones have square
    facets, so a cover pulls the faces of a facet as well."""
    cube = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    doubled = [(2 * x, 2 * y, 2 * z, 1) for x, y, z, _ in cube]
    octahedron = [tuple(s * int(i == j) for j in range(3)) + (1,)
                  for i in range(3) for s in (1, -1)]
    cones = [Cone.from_rays(rays) for rays in (cube, doubled, octahedron)]
    return cones + [cone.dual() for cone in cones]


def _embedded(rng, cone):
    """The cone under a sheared embedding of its lattice into one of rank one more."""
    n = cone.ambient_rank + 1
    return Cone.from_rays(random_shear(rng, [r + (0,) for r in cone.rays], n, 2 * n), n)


def test_hilbert_basis_matches_contains_sieve_oracle():
    rng = random.Random(1019)
    pointed = [random_pointed_cone(rng, max_rank=4, max_entry=2) for _ in range(80)]
    pointed += _bench_shaped_cones(rng)
    pointed += [cone.dual() for cone in pointed if cone.dim() == cone.ambient_rank]
    polytopes = _polytope_cones()
    pointed += polytopes + [_embedded(rng, cone) for cone in polytopes]
    # a facet of this cone over nine vertices of the 5-cube meets another
    # facet in a face of it that is not a facet, which the cover must not pull
    six = Cone.from_rays([(0, 0, 1, 0, 1, 1), (0, 0, 1, 1, 0, 1), (0, 0, 1, 1, 1, 1),
                          (0, 1, 0, 1, 1, 1), (0, 1, 1, 0, 0, 1), (0, 1, 1, 0, 1, 1),
                          (1, 0, 0, 0, 1, 1), (1, 0, 1, 0, 0, 1), (1, 0, 1, 0, 1, 1)])
    pointed += [six, six.dual()]
    with_units = [cone.dual() for cone in pointed if cone.dim() < cone.ambient_rank]
    assert len(with_units) >= 26 and all(dual.lineality for dual in with_units)
    deep = {}
    for cone in pointed + with_units:
        # the cover of the full-dimensional cone the sieve runs on
        local, _ = local_cone(pointed_quotient(cone)[0] if cone.lineality else cone)
        assert _simplicial_cover(local) == simplicial_cover_by_faces(local), cone
        case = (bool(cone.lineality), cone.dim() == cone.ambient_rank)
        if any(len(zeros) >= local.ambient_rank for _, zeros in _incidence(local)):
            deep[case] = deep.get(case, 0) + 1
        s = hilbert_basis(cone)
        assert s.units == cone.lineality
        assert s.generators == tuple(sorted(pointed_hilbert_basis_contains_sieve(cone))), cone
    # a facet that is not simplicial, on full-dimensional and lower-dimensional
    # pointed cones and on cones with units
    assert len(deep) == 3 and min(deep.values()) >= 3, deep


def test_hilbert_basis_of_a_full_dimensional_cone_builds_no_cone(monkeypatch):
    dd = counting(cone_module, "_dd")
    adjugate = counting(cone_module, "adjugate")
    faces = counting(Cone, "faces")
    from_rays = counting(Cone, "from_rays")
    cones = _polytope_cones()
    monkeypatch.setattr(cone_module, "_dd", dd)
    monkeypatch.setattr(cone_module, "adjugate", adjugate)
    monkeypatch.setattr(Cone, "faces", faces)
    monkeypatch.setattr(Cone, "from_rays", from_rays)
    # the cones were built with their duals; each dual knows its dual
    bases = [hilbert_basis(cone).generators for cone in cones]
    assert dd.calls == adjugate.calls == faces.calls == from_rays.calls == 0
    monkeypatch.undo()
    assert bases == [tuple(sorted(pointed_hilbert_basis_contains_sieve(c))) for c in cones]
    assert len(bases[0]) == 8


def test_hilbert_basis_of_a_full_dimensional_cone_with_units_changes_no_coordinates(monkeypatch):
    # the quotient of a full-dimensional cone by its units is full-dimensional,
    # so it needs no saturated span and no Hermite coordinates
    rng = random.Random(1601)
    cones = [Cone.from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (3, 2, 5)])]
    while len(cones) < 40:
        rank = rng.randint(2, 4)
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        others = rng.randint(rank - 1, rank + 1)
        gens = [v, tuple(-x for x in v)] + [
            tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(others)
        ]
        cone = Cone.from_rays(gens, rank)
        if cone.lineality and cone.rays and cone.dim() == rank:
            cones.append(cone)
    hermite = counting(semigroup, "hermite_coordinates")
    span = counting(semigroup, "saturated_span")
    monkeypatch.setattr(semigroup, "hermite_coordinates", hermite)
    monkeypatch.setattr(semigroup, "saturated_span", span)
    bases = [hilbert_basis(cone) for cone in cones]
    assert hermite.calls == span.calls == 0
    monkeypatch.undo()
    for cone, basis in zip(cones, bases):
        assert basis.units == cone.lineality
        assert basis.generators == tuple(sorted(pointed_hilbert_basis_contains_sieve(cone))), cone
    assert len(bases[0].generators) > 2
    assert {c.ambient_rank for c in cones} == {2, 3, 4}


def test_hilbert_basis_of_a_face_is_the_part_of_the_cones_on_it():
    # a sum that lies in a face of a pointed cone has both summands in it
    rng = random.Random(1307)
    cones = [random_pointed_cone(rng, max_rank=4, max_entry=3) for _ in range(60)]
    assert {c.ambient_rank for c in cones} == {1, 2, 3, 4}
    checked = 0
    for cone in cones:
        generators = hilbert_basis(cone).generators
        faces = cone.faces() + [orthogonal_face(r, cone) for r in cone.dual().rays]
        for face in faces:
            wall = hilbert_basis(face)
            assert wall.units == ()
            assert wall.generators == tuple(g for g in generators if face.contains(g)), face
            checked += 1
    assert checked >= 300


def test_sieve_makes_no_cone_membership_tests(monkeypatch):
    cone = Cone.from_rays([(1, 0, 0), (0, 1, 0), (3, 5, 11)])
    assert abs(determinant(cone.rays)) == 11
    calls = 0
    contains = Cone.contains

    def counting_contains(self, point):
        nonlocal calls
        calls += 1
        return contains(self, point)

    # the dual cross-check pairs generators with normals directly, so
    # neither it nor the sieve makes a membership test
    monkeypatch.setattr(Cone, "contains", counting_contains)
    s = hilbert_basis(cone)
    monkeypatch.undo()
    assert calls == 0
    assert list(s.generators) == sorted(pointed_hilbert_basis_contains_sieve(cone))


def test_pointed_cone_outside_its_span_coordinates_is_an_integrity_error(monkeypatch):
    # with the whole lattice as its "span" a plane cone in rank 3 is not
    # full-dimensional, and the value-tuple sieve would be unsound
    monkeypatch.setattr(semigroup, "saturated_span",
                        lambda rays: ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(IntegrityError, match="not full-dimensional"):
        _irreducible_points(Cone.from_rays([(1, 0, 0), (1, 2, 0)], 3))


def _random_independent_rows(rng, rank, count, max_entry):
    while True:
        rows = tuple(
            tuple(rng.randint(-max_entry, max_entry) for _ in range(rank)) for _ in range(count)
        )
        if matrix_rank(rows) == count:
            return rows


def _identity(rank):
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def test_parallelepiped_points_match_box_oracle(rng):
    cases = [
        ((2, 0), (0, 2)),
        ((0, 1), (1, 0)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 3)),
        ((1, 0), (1, 2)),
        ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 3)),
    ]
    for _ in range(200):
        rank = rng.randint(1, 3)
        cases.append(_random_independent_rows(rng, rank, rank, 2))
    for _ in range(10):
        cases.append(_random_independent_rows(rng, 4, 4, 1))
    for _ in range(20):
        rank = rng.randint(2, 4)
        cases.append(_random_independent_rows(rng, rank, rng.randint(1, rank - 1), 2))
    signs = set()
    square = 0
    for gens in cases:
        rank = len(gens[0])
        box = parallelepiped_points_box(gens, rank)
        assert parallelepiped_points_smith(gens) == box, gens
        # only a square piece of a simplicial cover is walked; with the unit
        # vectors as normals the values of a point are the point
        if len(gens) == rank:
            signs.add(determinant(gens) > 0)
            points = _parallelepiped_points(gens, _identity(rank))
            assert all(v == x for v, x in points.items()) and set(points) == box, gens
            square += 1
    assert signs == {False, True} and square == len(cases) - 20


def test_hermite_walk_matches_both_oracles_and_keys_each_point_by_its_values():
    rng = random.Random(2503)
    cases = []
    for rank, count, entry in ((1, 20, 9), (2, 80, 3), (3, 60, 2), (3, 20, 3), (4, 20, 1)):
        for _ in range(count):
            gens = _random_independent_rows(rng, rank, rank, entry)
            normals = _random_independent_rows(rng, rank, rank, 3)
            normals += tuple(tuple(rng.randint(-3, 3) for _ in range(rank))
                             for _ in range(rng.randint(0, 2)))
            cases.append((gens, normals))
    signs = {(len(g), determinant(g) > 0) for g, _ in cases}
    assert signs == {(rank, sign) for rank in (1, 2, 3, 4) for sign in (False, True)}
    # pieces of several wheels, whose wraps carry into the next wheel
    wheels = [sum(row[i] > 1 for i, row in enumerate(hermite_normal_form(g))) for g, _ in cases]
    assert wheels.count(2) >= 10 and max(abs(determinant(g)) for g, _ in cases) >= 40
    for gens, normals in cases:
        points = _parallelepiped_points(gens, normals)
        for v, x in points.items():
            assert v == tuple(pairing(a, x) for a in normals), (gens, normals)
        expected = parallelepiped_points_box(gens, len(gens))
        assert set(points.values()) == parallelepiped_points_smith(gens) == expected, gens
        assert len(points) == abs(determinant(gens))


def test_a_point_of_exactly_half_the_grade_reduces():
    # (2, 0) = 2 * (1, 0) is reducible only by a point of exactly half its
    # grade, so the cutoff keeps the points with 2 * grade <= the grade; a
    # plane cone takes the continued fraction, so the sieve is called itself
    cone = Cone.from_rays([(0, 1), (3, -1)])
    assert sorted(_sieved_points(cone)) == [(0, 1), (1, 0), (3, -1)]
    assert hilbert_basis(cone).generators == ((0, 1), (1, 0), (3, -1))


def _plane_cones(rng, count):
    """Seeded pointed cones of rank 2 (entries in [-30, 30]), plane cones in
    rank 3 and rank-3 cones with a line of units, each of whose local cones
    has rank 2."""
    cones = []
    while len(cones) < count:
        rank = rng.choice((2, 2, 3, 3))
        gens = [tuple(rng.randint(-30, 30) for _ in range(rank)) for _ in range(2)]
        if rank == 3 and rng.random() < 0.5:
            unit = tuple(rng.randint(-3, 3) for _ in range(rank))
            gens += [unit, tuple(-x for x in unit)]
        cone = Cone.from_rays(gens, rank)
        if cone.dim() - len(cone.lineality) == 2:
            cones.append(cone)
    return cones


def test_plane_basis_matches_the_walk_and_the_contains_sieve():
    # the continued fraction against the walk and sieve it replaces in rank
    # 2, on the local cone, and the Hilbert basis against the membership
    # sieve, which uses neither
    rng = random.Random(2609)
    cones = _plane_cones(rng, 600)
    kinds = {(c.ambient_rank, bool(c.lineality)) for c in cones}
    assert kinds == {(2, False), (3, False), (3, True)}
    assert max(abs(determinant(c.rays)) for c in cones if c.ambient_rank == 2) > 1000
    for i, cone in enumerate(cones):
        local = cone if cone.ambient_rank == 2 else _full_dimensional_quotient(cone)[0]
        assert local.ambient_rank == 2 and not local.lineality
        closed = _plane_basis(*local.rays)
        assert sorted(closed) == sorted(_sieved_points(local)), cone
        assert closed[0] in local.rays and closed[-1] in local.rays
        if i % 4 == 0:
            generators = hilbert_basis(cone).generators
            assert generators == tuple(sorted(pointed_hilbert_basis_contains_sieve(cone))), cone


def test_plane_basis_refuses_a_ray_that_is_not_primitive():
    # the rays are ordered by orientation, not by argument: Euclid refuses
    # the first ray u, and the fraction of a w = 2 * (1, 0) ends short of it
    for rays in (((2, 0), (1, -3)), ((1, -3), (2, 0))):
        with pytest.raises(IntegrityError, match=r"ray \(2, 0\) of the plane cone is not primitive"):
            _plane_basis(*rays)
    for rays in (((2, 0), (1, 3)), ((1, 3), (2, 0))):
        with pytest.raises(IntegrityError, match=r"ends at \(1, 0\)"):
            _plane_basis(*rays)


def test_a_wrong_hermite_diagonal_is_an_integrity_error(monkeypatch):
    # a diagonal whose product is not |det| is refused before the walk; one
    # with the right product that is not the Hermite one walks a box that
    # misses cosets, which the point count refuses
    for gens, diagonal, message in ((((1, 0), (1, 2)), (1, 4), "does not multiply to 2"),
                                    (((2, 0), (0, 3)), (3, 2), "found 4 parallelepiped points, expected 6")):
        monkeypatch.setattr(semigroup, "hermite_normal_form",
                            lambda rows, d=diagonal: ((d[0], 0), (0, d[1])))
        with pytest.raises(IntegrityError, match=message):
            _parallelepiped_points(gens, _identity(2))


def test_unimodular_pieces_match_the_smith_odometer(rng, monkeypatch):
    cases = []
    for rank in range(1, 6):
        for _ in range(12):
            identity = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
            rows = random_shear(rng, identity, rank, 3 * rank) if rank > 1 else identity
            rows = [tuple(sign * x for x in row) for sign, row in
                    zip(rng.choices([1, -1], k=rank), rows)]
            rng.shuffle(rows)
            cases.append(tuple(rows))
    assert {determinant(g) for g in cases} == {1, -1}
    assert max(abs(x) for g in cases for row in g for x in row) > 100
    hermite = counting(semigroup, "hermite_normal_form")
    adjugate = counting(semigroup, "adjugate")
    walker = counting(semigroup, "_parallelepiped_points")
    monkeypatch.setattr(semigroup, "hermite_normal_form", hermite)
    monkeypatch.setattr(semigroup, "adjugate", adjugate)
    monkeypatch.setattr(semigroup, "_parallelepiped_points", walker)
    # a unimodular piece adds only the origin, so the Hilbert basis of a
    # unimodular cone, its rays, comes without a walk, an adjugate or a
    # Hermite form
    for g in cases:
        cone = Cone.from_rays(g)
        assert sorted(_irreducible_points(cone)) == list(cone.rays), g
    assert walker.calls == hermite.calls == adjugate.calls == 0
    # the walk and the Smith odometer find the origin alone on every one of them
    walks = [walker(g, _identity(len(g))) for g in cases]
    assert walker.calls == hermite.calls == adjugate.calls == len(cases)
    assert walks == [{(0,) * len(g): (0,) * len(g)} for g in cases]
    assert all(parallelepiped_points_smith(g) == {(0,) * len(g)} for g in cases)


def test_hilbert_basis_of_a_full_dimensional_pointed_cone_takes_no_smith_form(monkeypatch):
    rng = random.Random(2509)
    cones = [Cone.from_rays([(1, 0, 0), (0, 1, 0), (3, 5, 97)]).dual()] + _polytope_cones()
    while len(cones) < 40:
        cone = random_pointed_cone(rng, max_rank=4, max_entry=3)
        if cone.rays and cone.dim() == cone.ambient_rank:
            cones.append(cone.dual())
    smith = counting(lattice_module, "smith_normal_form")
    for module in (lattice_module, semigroup):
        monkeypatch.setattr(module, "smith_normal_form", smith)
    bases = [hilbert_basis(cone) for cone in cones]
    assert smith.calls == 0
    monkeypatch.undo()
    walked = [c for c in cones if any(abs(determinant(p)) > 1 for p in _simplicial_cover(c))]
    assert len(walked) >= 20
    for cone, basis in zip(cones, bases):
        assert basis.generators == tuple(sorted(pointed_hilbert_basis_contains_sieve(cone))), cone


def test_parallelepiped_points_reject_dependent_generators():
    with pytest.raises(IntegrityError, match="not independent"):
        _parallelepiped_points(((1, 2), (2, 4)), _identity(2))


def test_multiply_monomials():
    x = AlgebraElement.monomial((1, 0))
    y = AlgebraElement.monomial((0, 1))
    assert x * y == AlgebraElement.monomial((1, 1))


def test_exponents_are_integers_as_given():
    assert AlgebraElement({(True, -2): 3}) == AlgebraElement.monomial((1, -2), 3)
    # a non-integer exponent is refused, not truncated to a lattice point
    for exponent in ((0.5, 1), (Fraction(3, 2), 0), (Fraction(1), 0), ("1", 0)):
        with pytest.raises(TypeError):
            AlgebraElement.monomial(exponent)
        # a zero coefficient drops its term only after the exponent is checked
        for coefficient in (1, 0):
            with pytest.raises(TypeError):
                AlgebraElement({exponent: coefficient})


def test_multiply_zero_absorbs():
    a = AlgebraElement.monomial((1, 0)) + AlgebraElement.monomial((2, 3))
    assert (a * AlgebraElement.zero()).is_zero()


def test_binomial_square():
    x = AlgebraElement.monomial((1, 0))
    y = AlgebraElement.monomial((0, 1))
    expected = (
        AlgebraElement.monomial((2, 0))
        + AlgebraElement.monomial((1, 1), 2)
        + AlgebraElement.monomial((0, 2))
    )
    assert (x + y) ** 2 == expected
    assert (x + y) * (x + y) == expected


def test_algebra_element_normalization():
    a = AlgebraElement({(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert a.support() == ((1, 0),)
    assert (a - a).is_zero()
    # exponents of one rank, whether their coefficient is 0 or not
    for terms in ({(1, 0): 1, (1, 2, 3): 0}, {(1, 2, 3): 0, (1, 0): 1}):
        with pytest.raises(DimensionError):
            AlgebraElement(terms)
    # a product of elements of two ranks is refused like their sum, not truncated
    x, t = AlgebraElement({(1, 0): 1}), AlgebraElement({(1,): 1})
    for combine in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: b * a):
        with pytest.raises(DimensionError):
            combine(x, t)


def test_boundary_projection_examples():
    s = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)]))
    rho = (1, 0)
    on_wall = AlgebraElement.monomial((0, 3))
    assert boundary_projection(rho, s, on_wall) == on_wall
    assert boundary_projection(rho, s, AlgebraElement.monomial((2, 1))).is_zero()
    mixed = AlgebraElement.monomial((0, 1)) + AlgebraElement.monomial((1, 1), 5)
    assert boundary_projection(rho, s, mixed) == AlgebraElement.monomial((0, 1))


def test_boundary_projection_rejects_poles():
    s = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)]))
    with pytest.raises(IntegrityError):
        boundary_projection((1, 0), s, AlgebraElement.monomial((-1, 0)))


def test_boundary_projection_is_ring_hom(rng):
    s = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)]))
    rho = (1, 0)
    for _ in range(30):
        def rand_elem():
            out = AlgebraElement.zero()
            for _ in range(rng.randint(1, 3)):
                m = (rng.randint(0, 3), rng.randint(0, 3))
                out = out + AlgebraElement.monomial(m, rng.randint(-3, 3))
            return out
        a, b = rand_elem(), rand_elem()
        lhs = boundary_projection(rho, s, a * b)
        rhs = boundary_projection(rho, s, a) * boundary_projection(rho, s, b)
        assert lhs == rhs


def test_fan_coordinate_semigroup_affine_plane():
    s = fan_coordinate_semigroup(affine_space_fan(2))
    assert s.generators == ((0, 1), (1, 0))


def test_fan_coordinate_semigroup_punctured_plane():
    # removing the origin does not change the global functions
    s = fan_coordinate_semigroup(punctured_plane_fan())
    assert s.generators == ((0, 1), (1, 0))
    assert s.units == ()


def test_fan_coordinate_semigroup_projective_line():
    s = fan_coordinate_semigroup(projective_line_fan())
    assert s.generators == ()
    assert s.units == ()


def test_fan_coordinate_semigroup_torus_factor():
    fan = Fan.from_cones([Cone.from_rays([(1, 0)], 2)], 2)
    s = fan_coordinate_semigroup(fan)
    assert s.generators == ((1, 0),)
    assert s.units == ((0, 1),)
