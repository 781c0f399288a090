import json
import random
import sys
import warnings
from argparse import Namespace
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd

import pytest

import torikit.derivations as derivations_module
import torikit.semigroup as semigroup_module
from torikit import Cone, Fan
from torikit.cli import fan_from_document, ga_actions_report, main, parse_fan_document
from torikit.derivations import (
    HomogeneousDerivation,
    _box_points_in_lex_order,
    _root_search,
    build_ga_actions,
    enumerate_roots,
    is_root,
)
from torikit.errors import IntegrityError, NilpotencyCapError, PreconditionError
from torikit.lattice import _bareiss, add, determinant, matrix_rank, pairing
from torikit.semigroup import AffineSemigroup, AlgebraElement, boundary_projection, hilbert_basis

from conftest import (
    DATA_DIR,
    affine_space_fan,
    axis_complement_fan,
    counting,
    line_times_torus_fan,
    punctured_plane_fan,
    random_pointed_cone,
    random_shear,
    sheared_simplex_subfans,
    torus_fan,
)
from _oracles import (
    box_points,
    enumerate_roots_slice,
    fixes_boundary_by_projection,
    independent_wall_generators_greedy,
    is_root_generators,
    naive_derivative,
    nilpotency_order_by_application,
    wall_generators_hilbert_basis,
)


def line_semigroup():
    return hilbert_basis(Cone.from_rays([(1,)]).dual())


def plane_semigroup():
    return hilbert_basis(Cone.from_rays([(1, 0), (0, 1)]).dual())


def test_is_root_line():
    s = line_semigroup()
    assert is_root(s, (1,), (-1,))
    assert not is_root(s, (1,), (-2,))
    assert not is_root(s, (1,), (0,))


def test_is_root_plane():
    s = plane_semigroup()
    assert is_root(s, (1, 0), (-1, 3))
    assert is_root(s, (1, 0), (-1, 0))
    assert not is_root(s, (1, 0), (0, 0))
    assert not is_root(s, (1, 0), (-2, 1))


def test_is_root_requires_extremal_ray():
    s = plane_semigroup()
    with pytest.raises(PreconditionError):
        is_root(s, (1, 1), (-1, 3))


def test_root_conditions_are_derived_once_per_ray(monkeypatch):
    # the dual cone is read once per (semigroup, ray); a ray that is not
    # extremal is refused on every call and leaves nothing behind
    s = plane_semigroup()
    dual = counting(Cone, "dual")
    monkeypatch.setattr(Cone, "dual", dual)
    window = list(box_points(2, 3))
    hits = [e for e in window if is_root(s, (1, 0), e)]
    assert enumerate_roots(s, (1, 0), 3) == hits
    assert dual.calls == 1
    assert [e for e in window if is_root(s, (0, 1), e)] == [(x, -1) for x in range(4)]
    assert dual.calls == 2
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not an extremal ray"):
            is_root(s, (1, 1), (-1, 3))
    assert dual.calls == 4
    assert set(s.root_conditions) == {(1, 0), (0, 1)}
    monkeypatch.undo()
    fresh = plane_semigroup()
    assert [e for e in window if is_root(fresh, (1, 0), e)] == hits


def test_enumerate_roots_line():
    assert enumerate_roots(line_semigroup(), (1,), 5) == [(-1,)]


def test_enumerate_roots_plane():
    roots = enumerate_roots(plane_semigroup(), (1, 0), 2)
    assert roots == [(-1, 0), (-1, 1), (-1, 2)]


def test_enumerate_roots_torus_has_no_rays():
    s = hilbert_basis(Cone.zero(2).dual())
    with pytest.raises(PreconditionError):
        enumerate_roots(s, (1, 0), 3)


def test_enumerate_roots_warns_on_empty_window():
    # the dual of cone((1,5)) has roots, but none inside radius 1
    s = hilbert_basis(Cone.from_rays([(2, 5), (1, -3)]).dual())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hits = enumerate_roots(s, s.cone.dual().rays[0], 1)
    if not hits:
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_closed_form_roots_match_generator_oracle():
    # 300 cones of rank 1-4, fewer of rank 4 (7^4 window points per ray);
    # an opposite generator gives a cone lineality.  The search also
    # matches the slice walk, and its first root is the least one.
    rng = random.Random(6007)
    tried = with_lineality = 0
    while tried < 300:
        rank = rng.choice((1, 2, 2, 3, 3, 3, 4))
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 1))
        ]
        if rng.random() < 0.4:
            gens.append(tuple(-x for x in rng.choice(gens)))
        sigma = Cone.from_rays(gens, rank)
        if not sigma.rays:
            continue
        tried += 1
        with_lineality += bool(sigma.lineality)
        s = hilbert_basis(sigma.dual())
        for rho in s.cone.dual().rays:
            window = list(box_points(rank, 3))
            expected = {e: is_root_generators(s, rho, e) for e in window}
            for e in window:
                assert is_root(s, rho, e) == expected[e], (gens, rho, e)
            for radius in (1, 2, 3):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = enumerate_roots(s, rho, radius)
                box = [e for e in window if expected[e] and max(map(abs, e)) <= radius]
                assert got == sorted(box), (gens, rho, radius)
                assert got == enumerate_roots_slice(s, rho, radius), (gens, rho, radius)
                first = next(_root_search(s, rho, radius), None)
                assert first == (got[0] if got else None), (gens, rho, radius)
    assert with_lineality >= 60


def test_box_search_matches_a_box_filter():
    # equations with large entries make the residue steps and the interval
    # narrowing do real work
    rng = random.Random(6011)
    found = 0
    for _ in range(400):
        rank = rng.randint(1, 4)
        a = tuple(rng.choice((0, 0, 1, -1, 2, -3, 4, 6, -6)) for _ in range(rank))
        if not any(a):
            continue
        equation = (a, rng.randint(-4, 4))
        rows = [
            (tuple(rng.randint(-4, 4) for _ in range(rank)), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        ]
        radius = rng.randint(1, 3)
        expected = [
            e for e in box_points(rank, radius)
            if pairing(e, a) + equation[1] == 0
            and all(pairing(e, r) + c >= 0 for r, c in rows)
        ]
        assert list(_box_points_in_lex_order(equation, rows, radius)) == expected, (
            equation, rows, radius)
        found += bool(expected)
    assert found > 100


def test_root_search_with_gcd_three_matches_the_slice_walk():
    sigma = Cone.from_rays([(-6, 13, 0), (3, -1, 0), (3, -2, 3), (-3, 2, -3)], 3)
    s = hilbert_basis(sigma.dual())
    for radius in (1, 2, 3, 4):
        expected = enumerate_roots_slice(s, (3, -1, 0), radius)
        assert list(_root_search(s, (3, -1, 0), radius)) == expected
    assert expected[0] == (-1, 0, 1)


def test_roots_pair_to_minus_gcd_when_the_dual_cone_has_lineality():
    sigma = Cone.from_rays([(-6, 13, 0), (3, -1, 0), (3, -2, 3), (-3, 2, -3)], 3)
    s = hilbert_basis(sigma.dual())
    roots = enumerate_roots(s, (3, -1, 0), 3)
    assert roots == [(-1, 0, 1), (0, 3, 2)]
    # the ray pairs to multiples of 3 with the span of the semigroup
    assert all(pairing(e, (3, -1, 0)) == -3 for e in roots)


def test_enumerate_roots_warns_before_a_huge_window(monkeypatch):
    s = hilbert_basis(affine_space_fan(4).support_cone().cone.dual())

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("torikit.derivations._box_points_in_lex_order", no_search)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 217^3 slice points
        with pytest.raises(RuntimeWarning, match="points on the root hyperplane"):
            enumerate_roots(s, (1, 0, 0, 0), 108)
        with pytest.raises(RuntimeWarning, match="points on the root hyperplane"):
            build_ga_actions(affine_space_fan(4), start_radius=108)


def test_root_search_checks_the_radius_then_the_ray_then_warns(monkeypatch):
    s = hilbert_basis(affine_space_fan(4).support_cone().cone.dual())

    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("torikit.derivations._box_points_in_lex_order", no_search)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="radius must be at least 1"):
            _root_search(s, (1, 1, 0, 0), 0)
        # 217^3 slice points would warn, but the ray is refused first
        with pytest.raises(PreconditionError, match=r"\(1, 1, 0, 0\) is not an extremal ray"):
            _root_search(s, (1, 1, 0, 0), 108)
        with pytest.raises(PreconditionError, match="is not an extremal ray"):
            is_root(s, (1, 1, 0, 0), (-1, 0, 0, 0))


def test_apply_is_classical_derivative_on_the_line():
    d = HomogeneousDerivation((1,), (-1,), line_semigroup())
    assert d(AlgebraElement.monomial((3,))) == AlgebraElement.monomial((2,), 3)


def test_apply_plane_example():
    d = HomogeneousDerivation((1, 0), (-1, 1), plane_semigroup())
    assert d(AlgebraElement.monomial((2, 0))) == AlgebraElement.monomial((1, 1), 2)


def test_apply_kills_the_wall():
    d = HomogeneousDerivation((1, 0), (-1, 1), plane_semigroup())
    assert d(AlgebraElement.monomial((0, 7))).is_zero()


def test_nilpotency_orders():
    line = HomogeneousDerivation((1,), (-1,), line_semigroup())
    assert line.nilpotency_order((3,)) == 4
    plane = HomogeneousDerivation((1, 0), (-1, 1), plane_semigroup())
    assert plane.nilpotency_order((0, 4)) == 1
    assert plane.nilpotency_order((2, 0)) == 3


def test_exponentiate_translation():
    d = HomogeneousDerivation((1,), (-1,), line_semigroup())
    x = AlgebraElement.monomial((1,))
    assert d.exponentiate(1, x) == x + AlgebraElement.monomial((0,))


def test_exponentiate_zero_time_is_identity():
    d = HomogeneousDerivation((1, 0), (-1, 1), plane_semigroup())
    a = AlgebraElement.monomial((2, 1)) + AlgebraElement.monomial((0, 3), 5)
    assert d.exponentiate(0, a) == a


def test_exponentiate_plane_example():
    d = HomogeneousDerivation((1, 0), (-1, 1), plane_semigroup())
    x1 = AlgebraElement.monomial((1, 0))
    assert d.exponentiate(2, x1) == x1 + AlgebraElement.monomial((0, 1), 2)


def _random_setup(rng):
    """Random (semigroup, derivation) with the fan it came from."""
    while True:
        cone = random_pointed_cone(rng, max_rank=3, max_entry=3, require_rays=True)
        fan = Fan.from_cones([cone])
        faces = [f for f in cone.faces() if f.rays]
        subset = rng.sample(faces, rng.randint(1, len(faces)))
        fan = Fan.from_cones(subset, cone.ambient_rank)
        sigma = fan.support_cone().cone
        if not sigma.rays:
            continue
        s = hilbert_basis(sigma.dual())
        rho = rng.choice(sigma.rays)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            roots = enumerate_roots(s, rho, 4)
        if not roots:
            continue
        e = rng.choice(roots)
        return s, HomogeneousDerivation(rho, e, s)


def _random_regular_element(rng, semigroup):
    out = AlgebraElement.zero()
    pool = list(semigroup.generators) + [tuple(-x for x in u) for u in semigroup.units]
    for _ in range(rng.randint(1, 3)):
        m = (0,) * semigroup.rank
        for _ in range(rng.randint(0, 3)):
            m = add(m, rng.choice(pool))
        out = out + AlgebraElement.monomial(m, rng.randint(-4, 4))
    return out


def test_leibniz_rule(rng):
    for _ in range(40):
        s, d = _random_setup(rng)
        a = _random_regular_element(rng, s)
        b = _random_regular_element(rng, s)
        assert d(a * b) == d(a) * b + a * d(b)


def test_homogeneity_degree_shift(rng):
    for _ in range(40):
        s, d = _random_setup(rng)
        for m in s.generators:
            image = d(AlgebraElement.monomial(m))
            for exponent, _ in image.terms():
                assert exponent == add(d.degree, m)


def test_apply_matches_definition(rng):
    for _ in range(20):
        s, d = _random_setup(rng)
        a = _random_regular_element(rng, s)
        expected = naive_derivative(d.ray, d.degree, a.terms())
        assert dict(d(a).terms()) == expected


def test_recorded_ray_pairing_is_negative(rng):
    for _ in range(30):
        _, d = _random_setup(rng)
        assert d.ray_pairing < 0


def test_local_nilpotency_bound(rng):
    for _ in range(30):
        s, d = _random_setup(rng)
        step = -d.ray_pairing
        for m in s.generators:
            bound = 1 + abs(pairing(m, d.ray)) // step + 1
            assert d.nilpotency_order(m) <= bound


def nilpotency_orders_agree(d, m):
    """The order of the closed form at m, checked against repeated application,
    with the cap at the order and one below it on both sides."""
    k = nilpotency_order_by_application(d, m)
    assert d.nilpotency_order(m) == k, (d, m)
    for order in (d.nilpotency_order, partial(nilpotency_order_by_application, d)):
        assert order(m, cap=k) == k, (d, m)
        with pytest.raises(NilpotencyCapError if k > 1 else PreconditionError):
            order(m, cap=k - 1)
    return k


def test_nilpotency_order_matches_repeated_application(rng):
    for _ in range(40):
        s, d = _random_setup(rng)
        for m in s.generators:
            nilpotency_orders_agree(d, m)
        for m, _ in _random_regular_element(rng, s).terms():
            nilpotency_orders_agree(d, m)
    for _, family in golden_families():
        for d in family.derivations:
            for m in family.semigroup.generators:
                nilpotency_orders_agree(d, m)


def test_nilpotency_order_matches_repeated_application_when_sigma_has_lineality():
    # the pinned cone has g = 2 along both rays; the seeded ones have lineality
    # and entries in [-2, 2], and some of them have g > 1 along some ray
    pinned = Cone.from_rays([(-6, 1, 0), (2, -1, 0), (0, 3, -2), (0, -3, 2)], 3)
    assert repr(pinned) == "Cone(rank=3, rays=[(-6, 1, 0), (2, -1, 0)], lineality=[(0, 3, -2)])"
    cones = [pinned]
    rng = random.Random(1811)
    while len(cones) < 60:
        rank = rng.randint(2, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, rank))]
        gens.append(tuple(-x for x in gens[0]))
        sigma = Cone.from_rays(gens, rank)
        if sigma.rays and sigma.lineality:
            cones.append(sigma)
    checked = with_gcd_above_one = 0
    for sigma in cones:
        s = hilbert_basis(sigma.dual())
        pool = list(s.generators) + list(s.units) + [tuple(-x for x in u) for u in s.units]
        exponents = [add(a, b) for a in pool for b in pool + [(0,) * sigma.ambient_rank]]
        for rho in sigma.rays:
            g = gcd(*(pairing(m, rho) for m in s.generators + s.units))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                roots = enumerate_roots(s, rho, 2)
            for e in roots[:3]:
                d = HomogeneousDerivation(rho, e, s)
                assert -d.ray_pairing == g
                for m in exponents:
                    if s.contains(m):
                        nilpotency_orders_agree(d, m)
                        checked += 1
                        with_gcd_above_one += g > 1
    assert checked >= 1000 and with_gcd_above_one >= 200


def test_nilpotency_order_rejects_a_semigroup_whose_generators_are_not_its_hilbert_basis():
    # (2, 0) and (0, 1) make g = 2 along (1, 0), yet (1, 0) lies in the cone
    s = AffineSemigroup(plane_semigroup().cone, [(2, 0), (0, 1)], ())
    d = HomogeneousDerivation((1, 0), (-2, 0), s)
    for order in (d.nilpotency_order, partial(nilpotency_order_by_application, d)):
        with pytest.raises(IntegrityError):
            order((1, 0))
    assert d.nilpotency_order((4, 1)) == nilpotency_order_by_application(d, (4, 1)) == 3


def test_torus_equivariance_on_monomials(rng):
    # conjugating the derivation by a torus weight rescales it by the
    # weight evaluated at the degree
    for _ in range(20):
        s, d = _random_setup(rng)
        n = s.rank
        t = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)]

        def weight(m):
            out = Fraction(1)
            for ti, mi in zip(t, m):
                out *= ti**mi
            return out

        for m in s.generators:
            mono = AlgebraElement.monomial(m)
            # t . d( t^{-1} . x^m ) == t^degree * d(x^m)
            twisted = weight(m) ** -1 * d(mono)
            retwisted = AlgebraElement(
                {ex: c * weight(ex) for ex, c in twisted.terms()}
            )
            assert retwisted == weight(d.degree) * d(mono)


def test_exponential_is_an_automorphism(rng):
    for _ in range(15):
        s, d = _random_setup(rng)
        a = _random_regular_element(rng, s)
        b = _random_regular_element(rng, s)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert d.exponentiate(t, a * b) == d.exponentiate(t, a) * d.exponentiate(t, b)


def test_exponential_one_parameter_group(rng):
    for _ in range(15):
        s, d = _random_setup(rng)
        a = _random_regular_element(rng, s)
        t1 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        t2 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert d.exponentiate(t1, d.exponentiate(t2, a)) == d.exponentiate(t1 + t2, a)


def test_build_ga_actions_affine_plane():
    family = build_ga_actions(affine_space_fan(2))
    assert family.chosen_ray == (0, 1)
    assert len(family.derivations) == 2
    assert matrix_rank(family.characters) == 2
    assert determinant(family.characters) != 0


def test_build_ga_actions_punctured_plane_fixes_boundary():
    family = build_ga_actions(punctured_plane_fan())
    assert family.boundary_rays == ((1, 0),)
    for d in family.derivations:
        for m in family.semigroup.generators:
            image = d(AlgebraElement.monomial(m))
            for rho in family.boundary_rays:
                assert boundary_projection(rho, family.semigroup, image).is_zero()


def test_build_ga_actions_rejects_torus():
    with pytest.raises(PreconditionError):
        build_ga_actions(torus_fan(2))


def test_build_ga_actions_requires_spanning_rays():
    with pytest.raises(PreconditionError):
        build_ga_actions(line_times_torus_fan())


def test_build_ga_actions_rejects_non_quasi_affine():
    from conftest import projective_line_fan

    with pytest.raises(PreconditionError):
        build_ga_actions(projective_line_fan())


def test_build_ga_actions_axis_complement():
    family = build_ga_actions(axis_complement_fan())
    assert len(family.characters) == 3
    assert determinant(family.characters) != 0


@pytest.mark.parametrize(
    "make_fan", [lambda: affine_space_fan(2), punctured_plane_fan, axis_complement_fan]
)
def test_build_ga_actions_uses_the_verdict_semigroup(make_fan):
    fan = make_fan()
    assert build_ga_actions(fan).semigroup == fan.quasi_affine_verdict().ambient


def test_build_after_decompose():
    fan = line_times_torus_fan()
    reduced, k, _ = fan.split_torus_factor()
    assert k == 1
    family = build_ga_actions(reduced)
    assert family.characters == ((-1,),)


def golden_families():
    """(file name, family) for the documents in tests/data that ga-actions accepts."""
    fans = []
    for path in sorted(DATA_DIR.glob("*.json")):
        fan = fan_from_document(parse_fan_document(path.read_text()))
        try:
            fans.append((path.name, build_ga_actions(fan)))
        except PreconditionError:
            pass
    assert len(fans) == 6
    return fans


def test_the_shared_nilpotency_table_is_every_derivations_own():
    # ga-actions reports one table of orders for the whole family; each
    # derivation, asked on its own, must give that same table
    fans = [fan_from_document(parse_fan_document(path.read_text()))
            for path in sorted(DATA_DIR.glob("*.json"))]
    rng = random.Random(2417)
    for n in range(2, 7):
        for _ in range(4):
            # a sheared orthant subfan: every ray, plus a few seeded faces
            rays = random_shear(rng, [tuple(int(i == j) for j in range(n)) for i in range(n)],
                                n, rng.randint(1, n))
            faces = [c for k in range(2, n + 1) for c in combinations(rays, k)]
            cones = rng.sample(faces, rng.randint(1, min(3, len(faces)))) + [(r,) for r in rays]
            fans.append(Fan.from_cones([Cone.from_rays(c, n) for c in cones], n))
    accepted = doubled = 0
    for fan in fans:
        try:
            family = build_ga_actions(fan, start_radius=1)
        except PreconditionError:
            continue
        report = ga_actions_report(fan, Namespace(radius=1))
        entries = report["derivations"]
        assert [e["degree"] for e in entries] == [d.degree for d in family.derivations]
        for entry, d in zip(entries, family.derivations):
            own = [(m, d.nilpotency_order(m)) for m in family.semigroup.generators]
            assert entry["nilpotency_orders_on_generators"] == own, (fan, d.degree)
        accepted += 1
        doubled += max(map(abs, family.root_degree)) > 1
    assert accepted == 26 and doubled >= 8


def test_wall_generators_match_a_hilbert_basis_of_the_wall():
    fans = golden_families()
    fans += [(fan, build_ga_actions(fan)) for fan in sheared_simplex_subfans(random.Random(1409))]
    for label, family in fans:
        assert family.wall_generators == wall_generators_hilbert_basis(family), label


def test_ga_actions_build_on_the_dual_basis_of_the_rays():
    # a passing verdict with no torus factor makes the rays a lattice basis,
    # so the ambient generators are its dual basis and the n - 1 of them off
    # the chosen ray are the whole wall basis
    fans = golden_families()
    rng = random.Random(1701)
    for n in range(1, 6):
        for _ in range(8):
            rays = [[rng.choice([-1, 1]) * int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(2 * (n - 1)):
                i, j = rng.sample(range(n), 2)
                q = rng.randint(-3, 3)
                for ray in rays:
                    ray[j] += q * ray[i]
            for cones in ([rays], [[ray] for ray in rays]):
                fan = Fan.from_cones([Cone.from_rays(c, n) for c in cones], n)
                fans.append((rays, build_ga_actions(fan)))
    for label, family in fans:
        n = len(family.chosen_ray)
        rays = (family.chosen_ray,) + family.boundary_rays
        pairings = [[pairing(m, r) for r in rays] for m in family.semigroup.generators]
        assert sorted(pairings, reverse=True) == [
            [int(i == j) for j in range(n)] for i in range(n)
        ], label
        assert len(family.wall_generators) == n - 1, label
        assert all(pairing(chi, family.chosen_ray) == -1 for chi in family.characters), label
        assert abs(family.character_determinant) == 1, label


def test_wall_pivot_columns_match_the_greedy_oracle():
    # _bareiss's pivot columns of a generator list taken as columns are the
    # generators independent of those before them; on lists with repeated
    # generators, zero-sum triples and a dependent prefix they are the
    # generators that one rank test each keeps
    rng = random.Random(1603)
    shapes = set()
    for _ in range(600):
        n = rng.randint(2, 6)
        basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(1, n))]
        gens = []
        if rng.random() < 0.5:
            v = rng.choice(basis)
            gens += [v, tuple(rng.choice([-2, 2, 3]) * x for x in v)]
            shapes.add("dependent prefix")
        for _ in range(rng.randint(1, 2 * n)):
            kind = rng.random()
            if kind < 0.2 and gens:
                gens.append(rng.choice(gens))
                shapes.add("repeated")
            elif kind < 0.4 and len(gens) >= 2:
                a, b = rng.sample(gens, 2)
                gens += [a, b, tuple(-x - y for x, y in zip(a, b))]
                shapes.add("zero-sum")
            else:
                gens.append(tuple(sum(rng.randint(-2, 2) * x for x in column)
                                  for column in zip(*basis)))
        gens = tuple(g for g in gens if any(g))
        _, pivots, _ = _bareiss(list(zip(*gens)), len(gens))
        pivot_columns = [gens[j] for j in pivots[: n - 1]]
        assert pivot_columns == independent_wall_generators_greedy(gens, n), gens
    assert shapes == {"dependent prefix", "repeated", "zero-sum"}


def test_ga_actions_makes_no_rank_test_from_derivations(monkeypatch, capsys):
    callers = []

    def recorded(real):
        def matrix_rank(rows):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return real(rows)
        return matrix_rank

    for name, module in list(sys.modules.items()):
        if name.startswith("torikit") and hasattr(module, "matrix_rank"):
            monkeypatch.setattr(module, "matrix_rank", recorded(module.matrix_rank))
    assert main(["ga-actions", str(DATA_DIR / "a2.json"), "--json"]) == 0
    capsys.readouterr()
    assert "torikit.derivations" not in callers


def test_boundary_check_matches_the_projection_oracle(monkeypatch):
    # a degree -m_c + sum a_i w_i, with m_c the dual-basis vector that is 1 on
    # the chosen ray and w_i the wall generators, pairs to -1 with the chosen
    # ray and to a_i with the boundary ray dual to w_i; taken as the root, it
    # gives characters that fix the boundary or not, and build_ga_actions
    # must raise exactly when the old projection check fails
    rng = random.Random(1813)
    fans = [fan_from_document(parse_fan_document(path.read_text()))
            for path in sorted(DATA_DIR.glob("*.json"))]
    fans += sheared_simplex_subfans(random.Random(1409))
    outcomes = {True: 0, False: 0}
    for fan in fans:
        try:
            family = build_ga_actions(fan)
        except PreconditionError:
            continue
        semis, chosen = family.semigroup, family.chosen_ray
        m_c = next(m for m in semis.generators if pairing(m, chosen) == 1)
        for _ in range(8):
            degree = tuple(-x for x in m_c)
            for w in family.wall_generators:
                a = rng.randint(-2, 1)
                degree = add(degree, tuple(a * x for x in w))
            recorded = []

            def determinant_of(rows):
                recorded.append(rows)
                return determinant(rows)

            with monkeypatch.context() as patch:
                patch.setattr(derivations_module, "is_root", lambda *args: True)
                patch.setattr(derivations_module, "_root_search", lambda *args: iter([degree]))
                patch.setattr(derivations_module, "determinant", determinant_of)
                try:
                    build_ga_actions(fan)
                    built = True
                except IntegrityError as exc:
                    assert "does not fix the boundary divisor" in str(exc)
                    built = False
                expected = all(
                    fixes_boundary_by_projection(
                        HomogeneousDerivation(chosen, chi, semis), family.boundary_rays)
                    for chi in recorded[-1]
                )
            assert built == expected, (fan, degree)
            outcomes[built] += 1
    assert outcomes[True] >= 40 and outcomes[False] >= 100


def test_ga_actions_applies_no_derivation(tmp_path, monkeypatch, capsys):
    n = 4
    rays = [[0] * i + [1] + [3] * (n - 1 - i) for i in range(n)]
    sheared = tmp_path / "sheared4.json"
    sheared.write_text(json.dumps(
        {"rank": n, "rays": rays, "cones": [list(c) for c in combinations(range(n), n - 1)]}
    ))
    calls = {"apply": 0, "element": 0, "projection": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HomogeneousDerivation, "__call__",
                        counted("apply", HomogeneousDerivation.__call__))
    monkeypatch.setattr(AlgebraElement, "__init__", counted("element", AlgebraElement.__init__))
    for module in (semigroup_module, derivations_module):
        if hasattr(module, "boundary_projection"):
            monkeypatch.setattr(module, "boundary_projection",
                                counted("projection", module.boundary_projection))
    accepted = 0
    for path in [*sorted(DATA_DIR.glob("*.json")), sheared]:
        accepted += main(["ga-actions", str(path), "--json"]) == 0
        capsys.readouterr()
    assert accepted == 7
    assert calls == {"apply": 0, "element": 0, "projection": 0}
