import pytest

from torikit import Cone, Fan
from torikit.errors import IntegrityError, NotAFanError, PreconditionError
from torikit.fan import SupportCone, _separated
from torikit.semigroup import fan_coordinate_semigroup

from conftest import (
    affine_space_fan,
    axis_complement_fan,
    blowup_plane_fan,
    hirzebruch_fan,
    line_times_torus_fan,
    projective_line_fan,
    projective_plane_fan,
    punctured_plane_fan,
    random_pointed_cone,
    torus_fan,
)
from _oracles import (
    euler_characteristic_all_cones,
    fan_closure_all_face_pairs,
    is_complete_all_cones,
    is_smooth_all_cones,
    maximal_cones_all_pairs,
)


def test_validate_face_closure():
    fan = affine_space_fan(2)
    assert len(fan.cones) == 4
    dims = sorted(c.dim() for c in fan.cones)
    assert dims == [0, 1, 1, 2]
    assert fan.rays == ((0, 1), (1, 0))


def test_validate_rejects_overlap():
    with pytest.raises(NotAFanError):
        Fan.from_cones(
            [Cone.from_rays([(1, 0), (0, 1)]), Cone.from_rays([(1, 0), (1, 2)])], 2
        )


def test_validate_rejects_non_pointed_cone():
    with pytest.raises(NotAFanError):
        Fan.from_cones([Cone.from_rays([(1, 0), (-1, 0)])], 2)


def test_validate_rejects_ray_inside_a_cone():
    # (1,1) lies in the cone but is not one of its faces
    with pytest.raises(NotAFanError):
        Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)]), Cone.from_rays([(1, 1)])], 2)


def _random_cone_list(rng):
    """Random strongly convex cones: some faces of one cone, plus cones
    spanned by its rays, a ray through its interior and random vectors."""
    base = random_pointed_cone(rng, max_rank=3, max_entry=2, require_rays=True)
    while base.dim() < 2:
        base = random_pointed_cone(rng, max_rank=3, max_entry=2, require_rays=True)
    rank = base.ambient_rank
    faces = base.faces()
    cones = rng.sample(faces, rng.randint(0, len(faces)))
    pool = list(base.rays) + [tuple(sum(col) for col in zip(*base.rays))]
    pool += [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(2)]
    for _ in range(rng.randint(0, 3)):
        extra = Cone.from_rays(rng.sample(pool, rng.randint(1, rank)), rank)
        if extra.is_strongly_convex():
            cones.append(extra)
    return cones, rank


def test_validate_agrees_with_all_face_pairs_oracle(rng):
    accepted = rejected = 0
    for _ in range(300):
        cones, rank = _random_cone_list(rng)
        expected = fan_closure_all_face_pairs(cones, rank)
        try:
            fan = Fan.from_cones(cones, rank)
        except NotAFanError:
            assert expected is None, cones
            rejected += 1
        else:
            assert fan.cones == expected, cones
            assert fan.maximal_cones() == maximal_cones_all_pairs(expected), cones
            assert fan.is_smooth() == is_smooth_all_cones(expected), cones
            assert fan.is_complete() == is_complete_all_cones(expected, rank), cones
            assert fan.euler_characteristic() == euler_characteristic_all_cones(expected, rank)
            accepted += 1
    assert accepted >= 60 and rejected >= 60


def test_face_lattice_queries_agree_with_all_cones_oracles():
    fans = [
        affine_space_fan(3), punctured_plane_fan(), projective_line_fan(),
        projective_plane_fan(), blowup_plane_fan(), hirzebruch_fan(), torus_fan(2),
        axis_complement_fan(), line_times_torus_fan(),
        Fan.from_cones([Cone.from_rays([(1, 0), (1, 2)])], 2),
    ]
    for fan in fans:
        n = fan.ambient_rank
        assert fan.maximal_cones() == maximal_cones_all_pairs(fan.cones), fan
        assert fan.is_smooth() == is_smooth_all_cones(fan.cones), fan
        assert fan.is_complete() == is_complete_all_cones(fan.cones, n), fan
        assert fan.euler_characteristic() == euler_characteristic_all_cones(fan.cones, n), fan


def test_separating_functional_certifies_a_common_face(rng):
    certified = 0
    for _ in range(400):
        rank = rng.randint(1, 3)
        pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(5)]
        sigma, tau = (
            Cone.from_rays(rng.sample(pool, rng.randint(1, rank)), rank) for _ in range(2)
        )
        if sigma.lineality or tau.lineality or not _separated(sigma, tau):
            continue
        certified += 1
        meet = sigma.intersect(tau)
        assert meet == Cone(rank, sorted(set(sigma.rays) & set(tau.rays))), (sigma, tau)
        assert meet.is_face_of(sigma) and meet.is_face_of(tau), (sigma, tau)
    assert certified >= 150


def test_pairs_left_to_the_intersection_check():
    # both facet normals are (1, 0) (representatives modulo the span
    # equations), so no u_s - x * u_t changes sign between the two rays
    sigma, tau = Cone.from_rays([(1, 0)]), Cone.from_rays([(1, -1)])
    assert not _separated(sigma, tau)
    assert set(Fan.from_cones([sigma, tau], 2).maximal_cones()) == {sigma, tau}
    overlap = Cone.from_rays([(1, 0), (0, 1)]), Cone.from_rays([(1, 0), (1, 2)])
    assert not _separated(*overlap)
    with pytest.raises(NotAFanError, match="do not intersect in a common face"):
        Fan.from_cones(overlap, 2)


def test_validate_empty_is_torus():
    fan = Fan.from_cones([], 2)
    assert len(fan.cones) == 1
    assert fan.cones[0] == Cone.zero(2)
    assert fan.rays == ()


def test_validate_idempotent(rng):
    for _ in range(15):
        cone = random_pointed_cone(rng)
        fan = Fan.from_cones([cone])
        again = Fan.from_cones(fan.cones, fan.ambient_rank)
        assert again == fan


def test_support_cone_punctured_plane():
    sigma, flag = punctured_plane_fan().support_cone()
    assert sigma.rays == ((0, 1), (1, 0))
    assert flag


def test_support_cone_projective_line():
    sigma, flag = projective_line_fan().support_cone()
    assert sigma.lineality == ((1,),)
    assert not flag


def test_support_cone_torus():
    sigma, flag = torus_fan(2).support_cone()
    assert sigma == Cone.zero(2)
    assert flag


def test_euler_characteristic():
    assert affine_space_fan(1).euler_characteristic() == 1
    assert affine_space_fan(3).euler_characteristic() == 1
    assert projective_line_fan().euler_characteristic() == 2
    assert punctured_plane_fan().euler_characteristic() == 0
    assert projective_plane_fan().euler_characteristic() == 3


def test_class_group_examples():
    rank, torsion = blowup_plane_fan().class_group()
    assert rank == 1 and torsion == ()
    rank, torsion = punctured_plane_fan().class_group()
    assert rank == 0 and torsion == ()
    rank, torsion = affine_space_fan(2).class_group()
    assert rank == 0 and torsion == ()


def test_class_group_requires_spanning_rays():
    with pytest.raises(PreconditionError):
        line_times_torus_fan().class_group()


def test_class_group_detects_torsion():
    # quotient singularity: the class group of the cone((1,0),(1,2)) fan is Z/2
    fan = Fan.from_cones([Cone.from_rays([(1, 0), (1, 2)])], 2)
    rank, torsion = fan.class_group()
    assert rank == 0
    assert torsion == (2,)


def test_split_torus_factor_single_ray_in_rank3():
    fan = Fan.from_cones([Cone.from_rays([(1, 0, 0)], 3)], 3)
    reduced, k, basis = fan.split_torus_factor()
    assert k == 2
    assert basis == ((1, 0, 0),)
    assert reduced.ambient_rank == 1
    assert reduced.rays == ((1,),)
    assert reduced.euler_characteristic() == 1


def test_split_torus_factor_torus():
    reduced, k, basis = torus_fan(2).split_torus_factor()
    assert k == 2
    assert basis == ()
    assert reduced.ambient_rank == 0
    assert reduced.euler_characteristic() == 1


def test_split_torus_factor_spanning_fan_unchanged():
    fan = affine_space_fan(2)
    reduced, k, _ = fan.split_torus_factor()
    assert k == 0
    assert reduced is fan


def test_euler_multiplicativity_under_split(rng):
    fans = [
        affine_space_fan(2),
        punctured_plane_fan(),
        line_times_torus_fan(),
        torus_fan(3),
        Fan.from_cones([Cone.from_rays([(1, 1, 0)], 3)], 3),
    ]
    for _ in range(10):
        fans.append(Fan.from_cones([random_pointed_cone(rng)]))
    for fan in fans:
        reduced, k, _ = fan.split_torus_factor()
        if k >= 1:
            # a torus factor kills every zero-dimensional orbit
            assert fan.euler_characteristic() == 0
        else:
            assert fan.euler_characteristic() == reduced.euler_characteristic()


def test_class_rank_identity(rng):
    fans = [affine_space_fan(3), punctured_plane_fan(), blowup_plane_fan(),
            projective_plane_fan(), hirzebruch_fan()]
    for _ in range(10):
        cone = random_pointed_cone(rng, require_rays=True)
        fan = Fan.from_cones([cone])
        if fan.split_torus_factor().torus_rank == 0:
            fans.append(fan)
    for fan in fans:
        rank, _ = fan.class_group()
        assert rank == len(fan.rays) - fan.ambient_rank


def test_quasi_affine_yes_cases():
    for fan in [affine_space_fan(1), affine_space_fan(2), affine_space_fan(3),
                punctured_plane_fan(), axis_complement_fan(), torus_fan(1),
                torus_fan(2), line_times_torus_fan()]:
        verdict = fan.quasi_affine_verdict()
        assert verdict.quasi_affine, fan
        assert verdict.failed_step is None
        assert verdict.ambient == fan_coordinate_semigroup(fan)


def test_quasi_affine_yes_reports_ambient_semigroup():
    verdict = punctured_plane_fan().quasi_affine_verdict()
    assert verdict.ambient.generators == ((0, 1), (1, 0))
    assert verdict.ambient.units == ()

    verdict = line_times_torus_fan().quasi_affine_verdict()
    assert verdict.torus_rank == 1
    assert verdict.ambient.generators == ((1, 0),)
    assert verdict.ambient.units == ((0, 1),)


def test_quasi_affine_no_cases():
    for fan in [projective_line_fan(), projective_plane_fan(),
                blowup_plane_fan(), hirzebruch_fan()]:
        verdict = fan.quasi_affine_verdict()
        assert not verdict.quasi_affine
        assert verdict.failed_step == "class_group"
        assert verdict.ambient is None


def test_quasi_affine_fails_on_singular_cone():
    fan = Fan.from_cones([Cone.from_rays([(1, 0), (1, 2)])], 2)
    verdict = fan.quasi_affine_verdict()
    assert not verdict.quasi_affine
    assert verdict.failed_step == "smoothness"
    assert verdict.detail == "cone Cone(rank=2, rays=[(1, 0), (1, 2)]) is singular"


def test_verdict_support_face_is_an_invariant(monkeypatch):
    # smooth with trivial class group forces every cone to be a face of
    # the support cone, so a failure there is an internal error
    fan = affine_space_fan(2)
    sigma = fan.support_cone().cone
    monkeypatch.setattr(Fan, "support_cone", lambda self: SupportCone(sigma, False))
    with pytest.raises(IntegrityError):
        fan.quasi_affine_verdict()


def test_quasi_affine_consistency(rng):
    fans = [affine_space_fan(2), punctured_plane_fan(), axis_complement_fan(),
            projective_plane_fan(), blowup_plane_fan()]
    for _ in range(10):
        fans.append(Fan.from_cones([random_pointed_cone(rng)]))
    for fan in fans:
        verdict = fan.quasi_affine_verdict()
        if verdict.quasi_affine:
            reduced, _, _ = fan.split_torus_factor()
            assert all(c.is_smooth() for c in reduced.cones)
            sigma, _ = reduced.support_cone()
            assert sigma.is_simplex()


def test_fixed_point_witness_examples():
    w = affine_space_fan(2).fixed_point_witness(2)
    assert w.applicable and len(w.fixed_cones) == 1

    for p in (2, 3, 5):
        w = punctured_plane_fan().fixed_point_witness(p)
        assert not w.applicable

    w = projective_line_fan().fixed_point_witness(3)
    assert w.applicable and len(w.fixed_cones) == 2


def test_fixed_point_witness_applicable_implies_nonempty(rng):
    fans = [affine_space_fan(n) for n in (1, 2, 3)]
    fans += [projective_line_fan(), projective_plane_fan(), hirzebruch_fan()]
    for _ in range(10):
        fans.append(Fan.from_cones([random_pointed_cone(rng)]))
    for fan in fans:
        for p in (2, 3, 5, 7):
            w = fan.fixed_point_witness(p)
            if w.applicable:
                assert w.fixed_cones
                assert fan.euler_characteristic() % p != 0


def test_fixed_point_witness_rejects_composite():
    with pytest.raises(PreconditionError):
        affine_space_fan(2).fixed_point_witness(4)


def test_euler_characteristic_mod_p():
    # the criterion speaks only when p does not divide the Euler characteristic
    assert affine_space_fan(3).euler_characteristic() % 5 != 0
    assert torus_fan(2).euler_characteristic() % 2 == 0
    assert projective_line_fan().euler_characteristic() % 2 == 0
    assert not projective_line_fan().fixed_point_witness(2).applicable


def test_completeness():
    assert projective_line_fan().is_complete()
    assert projective_plane_fan().is_complete()
    assert hirzebruch_fan().is_complete()
    assert not affine_space_fan(2).is_complete()
    assert not punctured_plane_fan().is_complete()
    assert not torus_fan(2).is_complete()


def test_report_fields():
    rep = projective_line_fan().report()
    assert rep.complete and rep.smooth
    assert rep.edge_count == 2
    assert rep.class_rank == 1
    assert rep.euler_characteristic == 2
    assert rep.torus_rank == 0
    assert not rep.verdict.quasi_affine
