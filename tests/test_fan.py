import json
import random
from itertools import combinations
from math import gcd

import pytest

import torikit.cone as cone_module
import torikit.derivations as derivations_module
import torikit.fan as fan_module
import torikit.lattice as lattice_module
import torikit.semigroup as semigroup_module
from torikit import Cone, Fan
from torikit.cli import fan_from_document, main, parse_fan_document
from torikit.cone import _incidence
from torikit.errors import IntegrityError, NotAFanError, PreconditionError
from torikit.fan import SupportCone, _separated
from torikit.lattice import determinant, hermite_coordinates, matrix_rank
from torikit.semigroup import fan_coordinate_semigroup

from conftest import (
    DATA_DIR,
    affine_space_fan,
    axis_complement_fan,
    blowup_plane_fan,
    counting,
    counting_walks,
    hirzebruch_fan,
    line_times_torus_fan,
    p1_power_cones,
    pair_loop_forced,
    projective_line_fan,
    projective_plane_fan,
    punctured_plane_fan,
    random_pointed_cone,
    random_shear,
    sheared_simplex_subfans,
    torus_fan,
)
from _oracles import (
    class_group_smith,
    euler_characteristic_all_cones,
    fan_closure_all_face_pairs,
    fan_coordinate_semigroup_contains_sieve,
    fan_from_document_per_cone,
    is_complete_all_cones,
    is_smooth_all_cones,
    maximal_cones_all_pairs,
    pseudo_manifold_by_contains,
    verdict_two_smoothness_passes,
)
from test_golden import EXTRA_DOCUMENTS
from test_properties import _fan_documents


def _faces(fan):
    """The cones of a fan, the faces of its maximal cones, sorted by (dimension, rays)."""
    faces = {f for c in fan.maximal_cones() for f in c.faces()}
    return tuple(sorted(faces, key=lambda c: (c.dim(), c.rays)))


def test_validate_face_closure():
    fan = affine_space_fan(2)
    assert [c.dim() for c in _faces(fan)] == [0, 1, 1, 2]
    assert fan.rays == ((0, 1), (1, 0))


def test_validate_rejects_overlap():
    with pytest.raises(NotAFanError):
        Fan.from_cones(
            [Cone.from_rays([(1, 0), (0, 1)]), Cone.from_rays([(1, 0), (1, 2)])], 2
        )


def test_validate_rejects_non_pointed_cone():
    with pytest.raises(NotAFanError) as raised:
        Fan.from_cones([Cone.from_rays([(1, 0), (-1, 0)])], 2)
    assert str(raised.value) == (
        "cone Cone(rank=2, rays=[], lineality=[(1, 0)]) is not strongly convex")


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
            assert _faces(fan) == expected, cones
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
        Fan.from_cones([Cone.from_rays([(1, 0), (1, 2)])], 2), Fan.from_cones([], 0),
    ]
    for fan in fans:
        n, cones = fan.ambient_rank, _faces(fan)
        assert fan.maximal_cones() == maximal_cones_all_pairs(cones), fan
        assert fan.is_smooth() == is_smooth_all_cones(cones), fan
        assert fan.is_complete() == is_complete_all_cones(cones, n), fan
        assert fan.euler_characteristic() == euler_characteristic_all_cones(cones, n), fan


def test_separating_functional_certifies_a_common_face(rng):
    certified = 0
    for _ in range(400):
        rank = rng.randint(1, 3)
        pool = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(5)]
        sigma, tau = (
            Cone.from_rays(rng.sample(pool, rng.randint(1, rank)), rank) for _ in range(2)
        )
        if sigma.lineality or tau.lineality or not _separated(
            sigma, tau, (_incidence(sigma), _incidence(tau))
        ):
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
    assert not _separated(sigma, tau, (_incidence(sigma), _incidence(tau)))
    assert set(Fan.from_cones([sigma, tau], 2).maximal_cones()) == {sigma, tau}
    overlap = Cone.from_rays([(1, 0), (0, 1)]), Cone.from_rays([(1, 0), (1, 2)])
    assert not _separated(*overlap, tuple(map(_incidence, overlap)))
    with pytest.raises(NotAFanError, match="do not intersect in a common face"):
        Fan.from_cones(overlap, 2)


def test_validate_empty_is_torus():
    fan = Fan.from_cones([], 2)
    assert _faces(fan) == (Cone.zero(2),)
    assert fan.rays == ()


def test_validate_idempotent(rng):
    for _ in range(15):
        cone = random_pointed_cone(rng)
        fan = Fan.from_cones([cone])
        again = Fan.from_cones(_faces(fan), fan.ambient_rank)
        assert again == fan


def test_support_cone_punctured_plane():
    sigma, flag = punctured_plane_fan().support_cone()
    assert sigma.rays == ((0, 1), (1, 0))
    assert flag


def test_support_cone_is_built_once():
    fan = punctured_plane_fan()
    assert fan.support_cone() is fan.support_cone()


def test_support_cone_projective_line():
    sigma, flag = projective_line_fan().support_cone()
    assert sigma.lineality == ((1,),)
    assert not flag


def test_support_cone_torus():
    sigma, flag = torus_fan(2).support_cone()
    assert sigma == Cone.zero(2)
    assert flag


# every_cone_is_face, the quasi-affineness criterion, known by hand
SUPPORT_FACE_FLAGS = {
    "a1.json": True, "a1_times_torus.json": True, "a2.json": True,
    "a2_minus_origin.json": True, "a3.json": True, "a3_minus_axis.json": True,
    "a4.json": True, "torus2.json": True, "blowup_a2.json": False,
    "hirzebruch_f1.json": False, "p1.json": False, "p2.json": False,
}


def test_support_face_flag_on_the_golden_fans():
    def flag(text):
        return fan_from_document(parse_fan_document(text)).support_cone().every_cone_is_face

    assert {p.name: flag(p.read_text()) for p in DATA_DIR.glob("*.json")} == SUPPORT_FACE_FLAGS
    assert [flag(text) for text in EXTRA_DOCUMENTS] == [True] * 5


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


def _torus_factor_fans(rng):
    """Seeded fans with a torus factor, as (cone ray lists, rank): (P^1)^n
    minus one maximal cone and sheared simplex subfans of rank n, times a
    torus of rank 1 or 2, under a seeded unimodular map."""
    bases = [p1_power_cones(n)[1:] for n in (1, 2, 3)]
    bases += [[c.rays for c in fan.maximal_cones()] for fan in sheared_simplex_subfans(rng)[:8]]
    out = []
    for cones in bases:
        n, t = len(cones[0][0]), rng.randint(1, 2)
        padded = [[r + (0,) * t for r in c] for c in cones]
        out.append((_mapped(padded, _unimodular(rng, n + t)), n + t))
    return out


def test_split_torus_factor_keeps_the_images_of_the_maximal_cones(rng):
    fans = [fan_from_document(parse_fan_document((DATA_DIR / name).read_text()))
            for name in ("a1_times_torus.json", "torus2.json")]
    fans += [Fan.from_cones([Cone.from_rays(c, n) for c in cones], n)
             for cones, n in _torus_factor_fans(rng)]
    for fan in fans:
        reduced, k, basis = fan.split_torus_factor()
        assert k >= 1
        mapped = [Cone.from_rays([hermite_coordinates(basis, r) for r in c.rays], len(basis))
                  for c in fan.maximal_cones()]
        validated = Fan.from_cones(mapped, len(basis))
        assert reduced == validated and reduced.rays == validated.rays


def test_analyze_validates_a_fan_with_a_torus_factor_once(monkeypatch, tmp_path, capsys):
    # (P^1)^3 minus one maximal cone, times a one-dimensional torus: only
    # the pair loop accepts it, and the reduced fan is not validated again
    cones = [[r + (0,) for r in c] for c in p1_power_cones(3)[1:]]
    rays = sorted({r for c in cones for r in c})
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "rank": 4,
        "rays": [list(r) for r in rays],
        "cones": [sorted(rays.index(r) for r in c) for c in cones],
    }))
    check_pairs = counting(fan_module, "_check_pairs")
    monkeypatch.setattr(fan_module, "_check_pairs", check_pairs)
    assert main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["torus_factor_rank"] == 1
    assert check_pairs.calls == 1


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
    for rays, singular in [
        ([(1, 0), (1, 2)], "Cone(rank=2, rays=[(1, 0), (1, 2)])"),
        # the least singular cone is a proper face of the only maximal one
        ([(1, 0, 0), (1, 2, 0), (0, 0, 1)], "Cone(rank=3, rays=[(1, 0, 0), (1, 2, 0)])"),
    ]:
        fan = Fan.from_cones([Cone.from_rays(rays)], len(rays[0]))
        verdict = fan.quasi_affine_verdict()
        assert not verdict.quasi_affine
        assert verdict.failed_step == "smoothness"
        assert verdict.detail == f"cone {singular} is singular"


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
            assert all(c.is_smooth() for c in _faces(reduced))
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


def _golden_fans():
    return [fan_from_document(parse_fan_document(path.read_text()))
            for path in sorted(DATA_DIR.glob("*.json"))]


def test_a_passing_verdict_tests_no_cone_for_smoothness(monkeypatch):
    # a trivial class group makes the rays a basis of their saturated span
    fans = [f for f in _golden_fans() if f.quasi_affine_verdict().quasi_affine]
    assert len(fans) == 8
    fans += [axis_complement_fan(), line_times_torus_fan(), torus_fan(3)]
    fans += sheared_simplex_subfans(random.Random(1511))

    def no_smoothness_test(self):
        raise AssertionError("a cone was tested for smoothness")

    monkeypatch.setattr(Cone, "is_smooth", no_smoothness_test)
    for fan in fans:
        report = fan.report()
        assert report.smooth and report.verdict.quasi_affine, fan


def test_report_smoothness_matches_the_all_cones_oracle(rng):
    fans = _golden_fans() + [projective_plane_fan(), hirzebruch_fan(), blowup_plane_fan()]
    fans += [Fan.from_cones([Cone.from_rays(c, n) for c in cones], n)
             for cones, n in _complete_simplicial_fans(rng)]
    for _ in range(200):
        cones, rank = _random_cone_list(rng)
        try:
            fans.append(Fan.from_cones(cones, rank))
        except NotAFanError:
            pass
    steps = set()
    for fan in fans:
        report = fan.report()
        assert report.smooth == is_smooth_all_cones(_faces(fan)), fan
        steps.add(report.verdict.failed_step)
    assert steps == {None, "smoothness", "class_group"}


def _random_cone_collection(rng):
    """A seeded rank-2-4 list of strongly convex cones on a few random rays,
    often a fan, often singular, with torsion or with a torus factor."""
    n = rng.randint(2, 4)
    rays = set()
    while len(rays) < rng.randint(1, n + 2):
        r = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(r):
            rays.add(tuple(x // gcd(*r) for x in r))
    rays = sorted(rays)
    cones = [Cone.from_rays(rng.sample(rays, rng.randint(1, min(n, len(rays)))), n)
             for _ in range(rng.randint(1, 3))]
    return [c for c in cones if c.is_strongly_convex()], n


# two planes, the singular one on rays 0 and 1 listed first: the least
# singular face lies in the second cone, so a search in cone order misses it
TWO_SINGULAR_CONES = ('{"rank":3,"rays":[[0,1,0],[0,1,2],[-1,0,0],[-1,0,2],[-1,-1,0]],'
                      '"cones":[[0,1],[2,3,4]]}')
# the cone over the unit square: not a simplex, yet its Smith diagonal is (1, 1, 1)
SQUARE_CONE = '{"rank":3,"rays":[[0,0,1],[1,0,1],[0,1,1],[1,1,1]],"cones":[[0,1,2,3]]}'


def _cyclic_cone_document(m):
    """The cone over the cyclic polytope C(m, 4), rays (1, t, ..., t^4), as one-cone fan."""
    rays = [[t ** i for i in range(5)] for t in range(1, m + 1)]
    return json.dumps({"rank": 5, "rays": rays, "cones": [list(range(m))]})


def test_the_verdict_matches_two_smoothness_passes(rng):
    fans = _golden_fans() + [projective_plane_fan(), hirzebruch_fan(), blowup_plane_fan()]
    texts = [*EXTRA_DOCUMENTS, TWO_SINGULAR_CONES, SQUARE_CONE]
    texts += [_cyclic_cone_document(m) for m in range(5, 9)]
    fans += [fan_from_document(parse_fan_document(text)) for text in texts]
    for _ in range(300):
        cones, n = _random_cone_collection(rng)
        try:
            fans.append(Fan.from_cones(cones, n))
        except NotAFanError:
            pass
    seen = set()
    for fan in fans:
        report = fan.report()
        v = report.verdict
        fields = (report.smooth, v.quasi_affine, v.failed_step, v.detail, v.torus_rank,
                  v.class_rank, v.class_torsion)
        assert fields == verdict_two_smoothness_passes(fan), fan
        assert (v.ambient is not None) == v.quasi_affine
        seen.add((v.failed_step, v.torus_rank > 0))
    # every step fails with and without a torus factor, and some fan passes
    assert len(fans) >= 250 and seen >= {(step, split) for step in ("smoothness", "class_group")
                                         for split in (False, True)} | {(None, False)}


def test_the_verdict_eliminates_the_ray_matrix_once(tmp_path, capsys, monkeypatch):
    # four rays in rank 4 and no full-dimensional cone: the adjugate of the
    # support cone, which the document's cones are faces of, is the only
    # elimination of the ray matrix.  Its full dimension shows that the rays
    # span, with no rank, and its facet pairs show a lattice basis, so the
    # class group and the dual-basis semigroup need no more.  Both are
    # written out in cofactors at rank 4, so no Bareiss elimination runs
    rays = [(1, 0, 0, 0), (2, 1, 0, 0), (0, 3, 1, 0), (1, 0, 1, 1)]
    path = tmp_path / "rank4.json"
    path.write_text(json.dumps({"rank": 4, "rays": rays, "cones": [[0, 1], [1, 2, 3], [0, 3]]}))
    bareiss = counting(lattice_module, "_bareiss")
    monkeypatch.setattr(lattice_module, "_bareiss", bareiss)
    calls = []
    for module, name in ((cone_module, "adjugate"), (semigroup_module, "adjugate"),
                         (semigroup_module, "determinant"), (derivations_module, "determinant")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda rows, real=real, name=name: calls.append(
            (name, sorted(map(tuple, rows)) == sorted(rays))) or real(rows))
    from_rays = counting(Cone, "from_rays")
    monkeypatch.setattr(Cone, "from_rays", from_rays)
    walks = counting_walks(monkeypatch).values()
    # ga-actions takes one more, the determinant of its characters
    for command, more in (("analyze", []), ("hilbert-basis", []), ("roots", []),
                          ("ga-actions", [("determinant", False)])):
        calls.clear()
        bareiss.calls = from_rays.calls = 0
        assert main([command, str(path), "--json"]) == 0
        assert calls == [("adjugate", True)] + more, command
        walked = sum(w.calls for w in walks)
        assert (bareiss.calls, from_rays.calls, walked) == (0, 1, 0), command
        report = json.loads(capsys.readouterr().out)
        assert command != "analyze" or report["quasi_affine"]


def test_a_passing_verdict_with_a_torus_factor_takes_no_walk(capsys, monkeypatch):
    # the pointed quotient of σ^∨ is a unimodular simplex, whose rays are its
    # Hilbert basis; only the units are split off, by one Smith form
    path = DATA_DIR / "a1_times_torus.json"
    walks = counting_walks(monkeypatch).values()
    smith = counting(lattice_module, "smith_normal_form")
    for module in (lattice_module, fan_module, semigroup_module):
        monkeypatch.setattr(module, "smith_normal_form", smith)
    for command in ("analyze", "hilbert-basis", "roots"):
        smith.calls = 0
        assert main([command, str(path), "--json"]) == 0
        assert (sum(w.calls for w in walks), smith.calls) == (0, 1), command
        report = json.loads(capsys.readouterr().out)
        if command == "analyze":
            assert (report["quasi_affine"], report["torus_factor_rank"]) == (True, 1)


def test_a_singular_verdict_tests_each_maximal_cone_once(tmp_path, capsys, monkeypatch):
    # three planes, the one on rays 0 and 1 singular: one Smith form for
    # Cl = Z, and one Hermite form for each plane, which is tested once, and
    # for each face of the singular plane; testing the planes twice took 10
    path = tmp_path / "singular.json"
    path.write_text('{"rank":3,"rays":[[1,0,0],[1,2,0],[0,0,1],[0,1,3]],'
                    '"cones":[[0,1],[2,3],[1,2]]}')
    smith = counting(fan_module, "smith_normal_form")
    hermite = counting(cone_module, "hermite_normal_form")
    monkeypatch.setattr(fan_module, "smith_normal_form", smith)
    monkeypatch.setattr(cone_module, "hermite_normal_form", hermite)
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["smooth"], report["class_rank"]) == (False, 1)
    assert report["failed_step"] == "smoothness"
    assert (hermite.calls, smith.calls) == (7, 1)
    verdict = fan_from_document(parse_fan_document(path.read_text())).quasi_affine_verdict()
    assert verdict.detail == "cone Cone(rank=3, rays=[(1, 0, 0), (1, 2, 0)]) is singular"


def test_a_singular_verdict_takes_smith_forms_only_for_lower_simplices(tmp_path, capsys,
                                                                        monkeypatch):
    # a cone that is not a simplex is singular without a Hermite form, and the
    # face search stops at the first singular face: C(8, 4) took 99 Smith
    # forms and the square cone 11 when each face of each cone was tested;
    # the one Smith form left is the class group's
    smith = counting(fan_module, "smith_normal_form")
    hermite = counting(cone_module, "hermite_normal_form")
    monkeypatch.setattr(fan_module, "smith_normal_form", smith)
    monkeypatch.setattr(cone_module, "hermite_normal_form", hermite)
    path = tmp_path / "fan.json"
    for text, calls in ((_cyclic_cone_document(8), 11), (SQUARE_CONE, 9)):
        path.write_text(text)
        smith.calls = hermite.calls = 0
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["failed_step"] == "smoothness"
        assert (hermite.calls, smith.calls) == (calls, 1), text


def test_report_fields():
    rep = projective_line_fan().report()
    assert rep.complete and rep.smooth
    assert rep.edge_count == 2
    assert rep.class_rank == 1
    assert rep.euler_characteristic == 2
    assert rep.torus_rank == 0
    assert not rep.verdict.quasi_affine


# -- the accept-only certificates of Fan.from_cones ---------------------------


def _unimodular(rng, n):
    """A seeded unimodular matrix: the identity under random row shears and swaps."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def _mapped(cones, rows):
    return [[tuple(sum(a * x for a, x in zip(row, r)) for row in rows) for r in c] for c in cones]


def _surface(rng):
    """A blown-up P^2 or Hirzebruch surface: its rays in cyclic order."""
    a = rng.randint(-1, 3)
    rays = [(1, 0), (0, 1), (-1, -1)] if a < 0 else [(1, 0), (0, 1), (-1, a), (0, -1)]
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
    return rays


def _surface_cones(rays):
    return [[rays[i], rays[(i + 1) % len(rays)]] for i in range(len(rays))]


def _times_p1(cones):
    return [[r + (0,) for r in c] + [(0,) * len(c[0]) + (s,)] for c in cones for s in (1, -1)]


def _stellar(rng, cones):
    """Subdivide one full cone at the primitive sum of its rays."""
    k = rng.randrange(len(cones))
    c = cones[k]
    w = tuple(map(sum, zip(*c)))
    g = gcd(*w)
    w = tuple(x // g for x in w)
    return cones[:k] + cones[k + 1:] + [c[:i] + [w] + c[i + 1:] for i in range(len(c))]


def _complete_simplicial_fans(rng):
    """Seeded complete simplicial fans as (cone ray lists, rank)."""
    out = []
    for n in (2, 3, 4, 5):
        out.append((_mapped(p1_power_cones(n), _unimodular(rng, n)), n))
    for _ in range(6):
        out.append((_surface_cones(_surface(rng)), 2))
    for _ in range(4):
        out.append((_times_p1(_surface_cones(_surface(rng))), 3))
    for n in (2, 3, 4):
        cones = p1_power_cones(n) if n != 3 else _times_p1(_surface_cones(_surface(rng)))
        for _ in range(rng.randint(1, 3)):
            cones = _stellar(rng, cones)
        out.append((_mapped(cones, _unimodular(rng, n)), n))
    return out


def _weighted_stellar(rng, cones):
    """Subdivide one full cone at a primitive positive combination of its rays."""
    k = rng.randrange(len(cones))
    c = cones[k]
    weights = [rng.randint(1, 3) for _ in c]
    w = tuple(sum(k * x for k, x in zip(weights, col)) for col in zip(*c))
    g = gcd(*w)
    w = tuple(x // g for x in w)
    return cones[:k] + cones[k + 1:] + [c[:i] + [w] + c[i + 1:] for i in range(len(c))]


def _class_groups_agree(fan):
    try:
        expected = class_group_smith(fan)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            fan.class_group()
        return
    assert tuple(fan.class_group()) == expected, fan


def test_closed_form_class_group_matches_the_smith_form(rng, monkeypatch):
    fans = _golden_fans() + [fan_from_document(parse_fan_document(text))
                             for text in EXTRA_DOCUMENTS]
    fans += [Fan.from_cones([Cone.from_rays(c, n) for c in cones], n)
             for cones, n in _complete_simplicial_fans(rng)]
    # subfans of weighted stellar subdivisions: some keep a unimodular
    # maximal cone, some have singular cones only, some have torsion
    for cones, n in _complete_simplicial_fans(rng) * 4:
        for _ in range(rng.randint(1, 3)):
            cones = _weighted_stellar(rng, cones)
        singular = [c for c in cones if abs(determinant(c)) > 1]
        for pool in (cones, singular):
            chosen = rng.sample(pool, rng.randint(1, len(pool))) if pool else []
            fans.append(Fan.from_cones([Cone.from_rays(c, n) for c in chosen], n))
    # n rays in rank n and no full-dimensional cone: a lattice basis, with
    # |det| > 1 (torsion) or with det 0, which no class group is defined for
    for n in (2, 3, 4, 5):
        for last in ((0,) * (n - 1) + (1,), (1,) * (n - 1) + (rng.randint(2, 5),),
                     (1,) * (n - 1) + (0,)):
            identity = [tuple(int(i == j) for j in range(n)) for i in range(n - 1)]
            rays = random_shear(rng, identity + [last], n, rng.randint(1, 2 * n))
            rays = [tuple(x // gcd(*r) for x in r) for r in rays]
            if last[-1]:
                chosen = rng.sample(list(combinations(rays, n - 1)), rng.randint(2, n))
                chosen += [(r,) for r in rays if not any(r in c for c in chosen)]
            else:
                chosen = [(r,) for r in rays]
            fans.append(Fan.from_cones([Cone.from_rays(c, n) for c in chosen], n))
    closed = [fan for fan in fans if any(c._is_unimodular_simplex() for c in fan.maximal_cones())]
    bases = [fan for fan in fans if len(fan.rays) == fan.ambient_rank
             and abs(determinant(fan.rays)) == 1 and fan not in closed]
    smith = counting(fan_module, "smith_normal_form")
    monkeypatch.setattr(fan_module, "smith_normal_form", smith)
    for fan in closed + bases:
        _class_groups_agree(fan)
    assert smith.calls == 0 and len(closed) >= 80 and len(bases) >= 4
    assert all(fan.class_group() == (0, ()) for fan in bases)
    others = [fan for fan in fans if fan not in closed + bases]
    for fan in others:
        _class_groups_agree(fan)
    torsion = sum(bool(class_group_smith(f)[1]) for f in others
                  if matrix_rank(f.rays) == f.ambient_rank)
    square = [f for f in others if len(f.rays) == f.ambient_rank]
    assert len(others) >= 60 and torsion >= 30
    assert {determinant(f.rays) == 0 for f in square} == {False, True}
    assert smith.calls == len(others)


def _raise(*args, **kwargs):
    raise AssertionError("the pair loop ran")


def _without_pair_loop(monkeypatch, cones, rank):
    with monkeypatch.context() as m:
        m.setattr(fan_module, "_separated", _raise)
        m.setattr(Cone, "intersect", _raise)
        return Fan.from_cones(cones, rank)


def test_validation_and_a_smooth_verdict_enumerate_no_faces(monkeypatch):
    # a fan is kept as its maximal cones; only a singular verdict lists faces
    sheared = [(0,) * i + (1,) + (3,) * (3 - i) for i in range(4)]
    fans = [
        ([Cone.from_rays(c, 3) for c in p1_power_cones(3)], 3, (True, "class_group")),
        ([Cone.from_rays(c, 4) for c in combinations(sheared, 3)], 4, (False, None)),
    ]

    def no_faces(self):
        raise AssertionError("faces were enumerated")

    monkeypatch.setattr(Cone, "faces", no_faces)
    for cones, n, expected in fans:
        report = Fan.from_cones(cones, n).report()
        assert report.smooth
        assert (report.complete, report.verdict.failed_step) == expected


def test_pseudo_manifold_certificate_accepts_complete_simplicial_fans(rng, monkeypatch):
    checked_by_oracle = 0
    for ray_lists, n in _complete_simplicial_fans(rng):
        cones = [Cone.from_rays(c, n) for c in ray_lists]
        fan = _without_pair_loop(monkeypatch, cones, n)
        assert fan_module._pseudo_manifold(fan), ray_lists
        faces = _faces(fan)
        assert fan.is_complete() and is_complete_all_cones(faces, n)
        assert fan.euler_characteristic() == len(ray_lists)
        if len(faces) <= 90:
            assert faces == fan_closure_all_face_pairs(cones, n), ray_lists
            checked_by_oracle += 1
        else:
            with pair_loop_forced(monkeypatch) as checked:
                slow = Fan.from_cones(cones, n)
            assert checked == [fan.maximal_cones()]
            assert (faces, fan.maximal_cones()) == (_faces(slow), slow.maximal_cones())
    assert checked_by_oracle >= 12


def _dependent_ray_cone(rng):
    """A seeded strongly convex cone whose rays are linearly dependent: a rank-3
    cone over a lattice polygon, or a rank-4 cone on 5 to 7 generators."""
    while True:
        if rng.random() < 0.5:
            n, gens = 3, [(rng.randint(-3, 3), rng.randint(-3, 3), 1) for _ in range(5)]
        else:
            n = 4
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(3)) + (rng.randint(1, 2),)
                for _ in range(rng.randint(5, 7))
            ]
        cone = Cone.from_rays(gens, n)
        if len(cone.rays) > cone.dim():
            return cone


def _document_paths_agree(text, sieve=True):
    """A document's fan, built with its cones as faces of the support cone when
    the rays are independent, and its semigroup, read off as the dual basis
    when the support cone is unimodular, against the per-cone path and the
    sieve.  Without ``sieve`` the semigroups are compared only where the dual
    basis is read off: the sieve on the dual of a random simplex of |det| D
    in rank n walks up to D^(n - 1) points."""
    doc = parse_fan_document(text)
    fast, slow = fan_from_document(doc), fan_from_document_per_cone(doc)
    assert fast.maximal_cones() == slow.maximal_cones(), text
    assert [c.dim() for c in fast.maximal_cones()] == [c.dim() for c in slow.maximal_cones()]
    assert fast.rays == slow.rays and fast.support_cone() == slow.support_cone(), text
    assert fast.support_cone().cone.dim() == slow.support_cone().cone.dim(), text
    dual_basis = fast.support_cone().cone._is_unimodular_simplex()
    if sieve or dual_basis:
        ours = fan_coordinate_semigroup(fast)
        sieved = fan_coordinate_semigroup_contains_sieve(slow)
        assert (ours.generators, ours.units) == (sieved.generators, sieved.units), text
    return dual_basis


def test_subfan_certificate_accepts_independent_rays(rng, monkeypatch):
    accepted = 0
    documents = []
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if matrix_rank(rays) < k:
            continue
        cones = [
            Cone.from_rays(rng.sample(rays, rng.randint(1, k - 1)), n)
            for _ in range(rng.randint(2, 4))
        ]
        fan = _without_pair_loop(monkeypatch, cones, n)
        if len(fan.maximal_cones()) < 2:
            continue
        sigma = Cone.from_rays(fan.rays, n)
        assert fan._support == SupportCone(sigma, True)
        assert all(c.is_face_of(sigma) for c in fan.maximal_cones())
        assert _faces(fan) == fan_closure_all_face_pairs(cones, n), rays
        assert fan.maximal_cones() == maximal_cones_all_pairs(_faces(fan))
        accepted += 1
        documents.append(json.dumps({"rank": n, "rays": fan.rays, "cones": [
            [fan.rays.index(r) for r in c.rays] for c in cones]}))
    assert accepted >= 60
    # the same fans, and the golden and generated documents, through both
    # document paths and both semigroup paths
    for text in documents:
        _document_paths_agree(text, sieve=False)
    assert sum(_document_paths_agree(text) for text in _fan_documents()) >= 40
    # faces of one strongly convex cone are faces of the cone their rays
    # span, also when the rays are dependent
    dependent = 0
    while dependent < 25:
        base = _dependent_ray_cone(rng)
        n, faces = base.ambient_rank, [f for f in base.faces() if f.rays]
        cones = rng.sample(faces, rng.randint(2, min(5, len(faces))))
        fan = _without_pair_loop(monkeypatch, cones, n)
        if len(fan.maximal_cones()) < 2 or matrix_rank(fan.rays) == len(fan.rays):
            continue
        assert fan.support_cone() == SupportCone(Cone.from_rays(fan.rays, n), True), base
        assert _faces(fan) == fan_closure_all_face_pairs(cones, n), base
        assert fan.maximal_cones() == maximal_cones_all_pairs(_faces(fan))
        dependent += 1


@pytest.mark.parametrize("text", [
    '{"rank":3,"rays":[[1,0,1],[0,1,1],[-1,0,1],[0,-1,1]],"cones":[[0],[1],[2],[3]]}',
    '{"rank":2,"rays":[[1,0],[1,2]],"cones":[[0],[1]]}',
])
def test_quasi_affine_fans_outside_the_verdict_skip_the_pair_loop(text, monkeypatch):
    # the two fans of the fan module docstring: their rays are faces of the
    # support cone, but the verdict stops at their class groups
    monkeypatch.setattr(fan_module, "_separated", _raise)
    monkeypatch.setattr(Cone, "intersect", _raise)
    fan = fan_from_document(parse_fan_document(text))
    assert fan.support_cone().every_cone_is_face
    assert fan.report().verdict.failed_step == "class_group"


def test_completeness_reads_the_walls_of_the_certificate(monkeypatch):
    # certificate B and is_complete share one incidence per maximal cone
    calls = []
    incidence = fan_module._incidence
    monkeypatch.setattr(fan_module, "_incidence", lambda c: calls.append(c) or incidence(c))
    fan = Fan.from_cones([Cone.from_rays(c, 4) for c in p1_power_cones(4)], 4)
    assert fan.report().complete
    assert sorted(calls, key=lambda c: c.rays) == sorted(fan.maximal_cones(), key=lambda c: c.rays)


def _validated(cones, rank):
    try:
        return Fan.from_cones(cones, rank)
    except NotAFanError:
        return None


def test_subfan_certificate_leaves_lineality_and_non_faces_to_the_pair_loop(rng, monkeypatch):
    # faces of a cone C with the negative of one of them: a fan whose
    # support cone has lineality; the stellar subdivision of C at an
    # interior ray: a fan whose support cone is C, with no maximal cone a
    # face of it; and that subdivision with C itself, which is no fan
    counts = {"lineality": 0, "subdivided": 0, "not a fan": 0}
    while min(counts.values()) < 6:
        base = _dependent_ray_cone(rng) if rng.random() < 0.5 else None
        if base is None:
            base = random_pointed_cone(rng, max_rank=3, max_entry=2, require_rays=True)
        n, faces = base.ambient_rank, [f for f in base.faces() if f.rays]
        if base.dim() < max(n, 2):
            continue
        if rng.random() < 0.4:
            cones = rng.sample(faces, rng.randint(1, min(3, len(faces))))
            cones.append(Cone.from_rays([tuple(-x for x in r) for r in rng.choice(cones).rays], n))
        else:
            weights = [rng.randint(1, 3) for _ in base.rays]
            interior = tuple(sum(w * x for w, x in zip(weights, col)) for col in zip(*base.rays))
            cones = [Cone.from_rays(f.rays + (interior,), n) for f in faces if f.dim() == n - 1]
            if rng.random() < 0.4:
                cones.append(base)
        expected = fan_closure_all_face_pairs(cones, n)
        with pair_loop_forced(monkeypatch) as checked:
            forced = _validated(cones, n)
        fan = _validated(cones, n)
        if expected is None:
            # only the pair loop rejects
            assert fan is None and forced is None, cones
            counts["not a fan"] += 1
            continue
        assert not fan.support_cone().every_cone_is_face, cones
        assert _faces(fan) == expected == _faces(forced), cones
        assert checked == [fan.maximal_cones()]
        if fan.support_cone().cone.lineality:
            counts["lineality"] += 1
        else:
            assert fan.support_cone().cone == base
            counts["subdivided"] += 1


# rank-2 cones whose union covers the plane twice; every ray is on exactly
# two of them, on opposite sides, so only the interior point refutes them
DOUBLE_COVER = [((1, 0), (-4, 3)), ((-4, 3), (1, -3)), ((1, -3), (1, 3)),
                ((1, 3), (-4, -3)), ((-4, -3), (1, 0))]
# every ray is on two cones, but (1,-2) and (0,-1) have both on one side
FOLD = [((1, 0), (-1, 1)), ((-1, 1), (-1, -1)), ((-1, -1), (1, -2)),
        ((1, -2), (0, -1)), ((0, -1), (1, 0))]
# the fan of P^2 and its negative: each is complete, so each ray is on
# exactly two cones, on opposite sides
OVERLAPPING = [((1, 0), (0, 1)), ((0, 1), (-1, -1)), ((-1, -1), (1, 0)),
               ((-1, 0), (0, -1)), ((0, -1), (1, 1)), ((1, 1), (-1, 0))]
# (P^1)^3 with the octant over (e1, e2, -e3) split at e1 + e2 below the
# plane z = 0 only: the wall (e1, e2) is on one cone, its halves on one each
T_JUNCTION = [
    c for c in p1_power_cones(3) if c != [(1, 0, 0), (0, 1, 0), (0, 0, -1)]
] + [[(1, 0, 0), (1, 1, 0), (0, 0, -1)], [(1, 1, 0), (0, 1, 0), (0, 0, -1)]]

# each with the pair that the pair loop rejects first
PINNED_NEGATIVES = {
    "double cover": (DOUBLE_COVER, 2, "[(-4, -3), (1, 0)]", "[(-4, 3), (1, -3)]"),
    "fold": (FOLD, 2, "[(-1, -1), (1, -2)]", "[(0, -1), (1, -2)]"),
    "overlapping complete fans": (OVERLAPPING, 2, "[(-1, -1), (0, 1)]", "[(-1, 0), (0, -1)]"),
    "T-junction": (
        T_JUNCTION, 3, "[(0, 0, -1), (0, 1, 0), (1, 1, 0)]", "[(0, 0, 1), (0, 1, 0), (1, 0, 0)]"
    ),
}


def test_pseudo_manifold_membership_agrees_with_cone_contains(rng, monkeypatch):
    # certificate B tests the first ray sum against the kept normals of the
    # other cones; the double cover and the overlapping fans pass every wall
    # test, so that membership test alone rejects them
    fans = {"double cover": (DOUBLE_COVER, 2), "overlapping": (OVERLAPPING, 2)}
    fans.update((f"complete {i}", fan) for i, fan in enumerate(_complete_simplicial_fans(rng)))
    monkeypatch.setattr(fan_module, "_check_pairs", lambda maximal: None)
    for label, (ray_lists, n) in fans.items():
        fan = Fan.from_cones([Cone.from_rays(c, n) for c in ray_lists], n)
        expected = label.startswith("complete")
        assert fan_module._pseudo_manifold(fan) == pseudo_manifold_by_contains(fan) == expected


@pytest.mark.parametrize("label", sorted(PINNED_NEGATIVES))
def test_certificates_leave_non_fans_to_the_pair_loop(label, monkeypatch):
    ray_lists, n, first, second = PINNED_NEGATIVES[label]
    cones = [Cone.from_rays(c, n) for c in ray_lists]
    assert all(c.is_strongly_convex() and c.is_simplex() for c in cones)
    calls = []
    separated = fan_module._separated
    monkeypatch.setattr(fan_module, "_separated", lambda *a: calls.append(a) or separated(*a))
    with pytest.raises(NotAFanError) as raised:
        Fan.from_cones(cones, n)
    assert calls, label
    assert str(raised.value) == (
        f"not a fan: maximal cones Cone(rank={n}, rays={first}) and "
        f"Cone(rank={n}, rays={second}) do not intersect in a common face"
    )
    assert fan_closure_all_face_pairs(cones, n) is None


@pytest.mark.parametrize("cones, rank", [
    ([Cone.from_rays([(1,)]), Cone.from_rays([(-1,)])], 1),
    ([Cone.from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
      Cone.from_rays([(1, 0, 1), (0, 1, 1), (1, 1, 0)])], 3),
])
def test_certificates_leave_rank_one_and_non_simplicial_fans_to_the_pair_loop(
    cones, rank, monkeypatch
):
    calls = []
    separated = fan_module._separated
    monkeypatch.setattr(fan_module, "_separated", lambda *a: calls.append(a) or separated(*a))
    fan = Fan.from_cones(cones, rank)
    assert calls
    assert _faces(fan) == fan_closure_all_face_pairs(cones, rank)
    assert not fan.support_cone().every_cone_is_face
