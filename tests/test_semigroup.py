from fractions import Fraction

import pytest

from torikit import Cone, Fan
from torikit.errors import IntegrityError
from torikit.lattice import determinant, matrix_rank, pairing
from torikit.semigroup import (
    AlgebraElement,
    _parallelepiped_points,
    boundary_projection,
    fan_coordinate_semigroup,
    hilbert_basis,
)

from conftest import (
    affine_space_fan,
    projective_line_fan,
    punctured_plane_fan,
    random_pointed_cone,
)
from _oracles import (
    box_points,
    parallelepiped_points_box,
    semigroup_generates,
    semigroup_generates_without,
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


def _random_independent_rows(rng, rank, count, max_entry):
    while True:
        rows = tuple(
            tuple(rng.randint(-max_entry, max_entry) for _ in range(rank)) for _ in range(count)
        )
        if matrix_rank(rows) == count:
            return rows


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
    for gens in cases:
        rank = len(gens[0])
        if len(gens) == rank:
            signs.add(determinant(gens) > 0)
        assert _parallelepiped_points(gens, rank) == parallelepiped_points_box(gens, rank), gens
    assert signs == {False, True}


def test_parallelepiped_points_reject_dependent_generators():
    with pytest.raises(IntegrityError):
        _parallelepiped_points(((1, 2), (2, 4)), 2)


def test_multiply_monomials():
    x = AlgebraElement.monomial((1, 0))
    y = AlgebraElement.monomial((0, 1))
    assert x * y == AlgebraElement.monomial((1, 1))


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
