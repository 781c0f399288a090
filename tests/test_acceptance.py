"""Acceptance suite: one test per criterion, each with its runtime budget.

Every test prints a single PASS line on success (visible with -s); a
failure shows up as a normal pytest failure.
"""

import json
import random
import time
import warnings
from contextlib import contextmanager
from hashlib import sha256
from itertools import combinations, product


import torikit.cone as cone_module
import torikit.fan as fan_module
import torikit.lattice as lattice_module
import torikit.semigroup as semigroup_module
from torikit import Cone, Fan
from torikit.cli import main, parse_fan_document, serialize_fan_document
from torikit.derivations import (
    HomogeneousDerivation,
    _box_points_in_lex_order,
    build_ga_actions,
    enumerate_roots,
)
from torikit.lattice import add, determinant, pairing
from torikit.semigroup import AlgebraElement, boundary_projection, hilbert_basis

from conftest import (
    DATA_DIR,
    affine_space_fan,
    axis_complement_fan,
    blowup_plane_fan,
    counting,
    hirzebruch_fan,
    line_times_torus_fan,
    p1_power_cones,
    pair_loop_forced,
    projective_line_fan,
    projective_plane_fan,
    punctured_plane_fan,
    torus_fan,
)
from _oracles import (
    box_points,
    enumerate_roots_box,
    pointed_hilbert_basis_contains_sieve,
    semigroup_generates,
    semigroup_generates_without,
)
from test_derivations import nilpotency_orders_agree


@contextmanager
def runtime_budget(limit_seconds, label):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"{label}: {elapsed:.2f}s exceeded {limit_seconds}s"
    print(f"ACCEPTANCE PASS: {label} ({elapsed:.2f}s)")


def test_derivation_formula_fidelity_on_the_line():
    with runtime_budget(1.0, "derivation formula fidelity on the affine line"):
        s = hilbert_basis(Cone.from_rays([(1,)]).dual())
        roots = enumerate_roots(s, (1,), 10)
        assert roots == [(-1,)]
        d = HomogeneousDerivation((1,), (-1,), s)
        for m in range(0, 11):
            image = d(AlgebraElement.monomial((m,)))
            if m == 0:
                assert image.is_zero()
            else:
                assert image == AlgebraElement.monomial((m - 1,), m)


def test_ga_action_construction_end_to_end():
    with runtime_budget(5.0, "boundary-fixing actions on the golden fans"):
        targets = [
            affine_space_fan(2),
            affine_space_fan(3),
            punctured_plane_fan(),
            line_times_torus_fan().split_torus_factor().reduced_fan,
        ]
        for fan in targets:
            family = build_ga_actions(fan)
            n = fan.ambient_rank
            assert len(family.characters) == n
            assert determinant(family.characters) != 0
            for d in family.derivations:
                for m in family.semigroup.generators:
                    image = d(AlgebraElement.monomial(m))
                    for rho in family.boundary_rays:
                        assert boundary_projection(rho, family.semigroup, image).is_zero()


def test_root_search_on_the_hyperplane_slice(tmp_path, capsys):
    sheared = tmp_path / "sheared.json"
    sheared.write_text(json.dumps(
        {"rank": 3, "rays": [[1, 0, 0], [13, 1, 0], [13, 13, 1]], "cones": [[0, 1, 2]]}
    ))
    affine_4 = DATA_DIR / "a4.json"
    label = "ga-actions on a sheared cone and roots --radius 12 on affine 4-space"
    with runtime_budget(1.0, label):
        with warnings.catch_warnings():
            # the empty windows of the doubling search must stay silent
            warnings.simplefilter("error")
            assert main(["ga-actions", str(sheared), "--json"]) == 0
        actions = json.loads(capsys.readouterr().out)
        assert main(["roots", str(affine_4), "--radius", "12", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert actions["root_degree"] == [-1, 13, -24]

    # roots along a coordinate ray of the orthant: -1 on it, >= 0 elsewhere
    rho = tuple(report["ray"])
    roots = [tuple(e) for e in report["roots"]]
    assert len(roots) == 13 ** 3
    assert all(pairing(e, rho) == -1 and min(add(e, rho)) >= 0 for e in roots)
    semigroup = hilbert_basis(Cone.from_rays(parse_fan_document(affine_4.read_text()).rays).dual())
    assert [e for e in roots if max(map(abs, e)) <= 2] == enumerate_roots_box(semigroup, rho, 2)


def test_ga_actions_on_the_rank_7_sheared_orthant_subfan(tmp_path, capsys):
    # ray i is (0, ..., 0, 1, 3, ..., 3); the cones are all 6-subsets of the rays
    n = 7
    rays = [[0] * i + [1] + [3] * (n - 1 - i) for i in range(n)]
    cones = [list(c) for c in combinations(range(n), n - 1)]
    path = tmp_path / "sheared7.json"
    path.write_text(json.dumps({"rank": n, "rays": rays, "cones": cones}))
    with runtime_budget(1.0, "ga-actions on the rank-7 sheared orthant subfan"):
        assert main(["ga-actions", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["root_degree"] == [-6, -6, -6, 3, 6, 6, -1]


def test_work_counts_on_the_rank_4_sheared_orthant_subfan(tmp_path, capsys, monkeypatch):
    # smooth and quasi-affine, made of unimodular simplicial cones: no
    # double description runs and no Smith form goes to a unimodular piece
    n = 4
    rays = [[0] * i + [1] + [3] * (n - 1 - i) for i in range(n)]
    cones = [list(c) for c in combinations(range(n), n - 1)]
    path = tmp_path / "sheared4.json"
    path.write_text(json.dumps({"rank": n, "rays": rays, "cones": cones}))
    dd = counting(cone_module, "_dd")
    monkeypatch.setattr(cone_module, "_dd", dd)
    smith = counting(lattice_module, "smith_normal_form")
    for module in (lattice_module, semigroup_module, fan_module):
        monkeypatch.setattr(module, "smith_normal_form", smith)
    counts, digests = [], []
    with runtime_budget(1.0, "work counts of analyze and ga-actions on the rank-4 sheared subfan"):
        for command in ("analyze", "ga-actions"):
            assert main([command, str(path), "--json"]) == 0
            digests.append(sha256(capsys.readouterr().out.encode()).hexdigest())
            counts.append({"_dd": dd.calls, "smith_normal_form": smith.calls})
    # running totals; the four rays are a lattice basis, so each verdict
    # reads the trivial class group off the facet pairs of their support
    # cone, and that makes every cone smooth without a test; ga-actions
    # reads its wall generators off the ambient semigroup
    assert counts == [{"_dd": 0, "smith_normal_form": 0}, {"_dd": 0, "smith_normal_form": 0}]
    assert digests == [
        "c5451316851bac33d4cd868962ff745e9c79b3cfea318f2e8dc0991782de8ff7",
        "87e0c6ad52f674affcbb49264d3dd7eb7f82b0ec8df856fa0506f64d69e12b89",
    ]


def test_hilbert_bases_change_coordinates_only_where_the_cone_needs_it(tmp_path, capsys,
                                                                      monkeypatch):
    # the dual of a strongly convex cone is sieved in its own coordinates, a
    # dual the library built knows its dual, and a cover reads the facet
    # incidence; only a cone with units or span equations gets a local cone
    n = 4
    sheared = {"rank": n, "rays": [[0] * i + [1] + [3] * (n - 1 - i) for i in range(n)],
               "cones": [list(c) for c in combinations(range(n), n - 1)]}
    quadrilateral = {"rank": 3, "rays": [[0, 0, 1], [3, 0, 1], [4, 2, 1], [0, 2, 1]],
                     "cones": [[0, 1, 2, 3]]}
    plane = {"rank": 3, "rays": [[1, 0, 0], [13, 30, 0]], "cones": [[0, 1]]}
    counters = {"adjugate": counting(cone_module, "adjugate"),
                "_dd": counting(cone_module, "_dd"),
                "hermite_coordinates": counting(lattice_module, "hermite_coordinates"),
                "Cone.faces": counting(Cone, "faces"),
                "Cone.from_rays": counting(Cone, "from_rays")}
    monkeypatch.setattr(cone_module, "adjugate", counters["adjugate"])
    monkeypatch.setattr(cone_module, "_dd", counters["_dd"])
    for module in (lattice_module, semigroup_module, fan_module):
        monkeypatch.setattr(module, "hermite_coordinates", counters["hermite_coordinates"])
    monkeypatch.setattr(Cone, "faces", counters["Cone.faces"])
    monkeypatch.setattr(Cone, "from_rays", counters["Cone.from_rays"])
    path = tmp_path / "cone.json"

    def counts(doc, *command):
        path.write_text(json.dumps(doc))
        for counter in counters.values():
            counter.calls = 0
        assert main([command[0], str(path), *command[1:], "--json"]) == 0
        capsys.readouterr()
        return {name: counter.calls for name, counter in counters.items()}

    with runtime_budget(1.0, "work counts of the Hilbert basis commands"):
        for command in (["analyze"], ["ga-actions"], ["roots"],
                        ["hilbert-basis"]):
            work = counts(sheared, *command)
            assert work["adjugate"] == 1 and work["hermite_coordinates"] == 0, command
        work = counts(quadrilateral, "hilbert-basis")
        assert work["_dd"] == 2 and work["Cone.faces"] == 0
        assert counts(plane, "hilbert-basis")["Cone.from_rays"] == 2


BLOWN_UP_P2 = [[(1, 0), (1, 1)], [(1, 1), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]]
COMPLETE_FANS = [
    (4, p1_power_cones(4)),
    # F_2 blown up at one torus-fixed point, rays in cyclic order
    (2, [[(1, 0), (1, 1)], [(1, 1), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)],
         [(0, -1), (1, 0)]]),
    # P^2 blown up at one torus-fixed point, times P^1
    (3, [[(*r, 0) for r in c] + [(0, 0, s)] for c in BLOWN_UP_P2 for s in (1, -1)]),
]


def test_work_counts_on_complete_fans(tmp_path, capsys, monkeypatch):
    # one adjugate per maximal cone decides independence, the facet
    # incidence, smoothness and the class group; it is written out in
    # cofactors up to rank 3 and eliminated from rank 4
    adjugate = counting(cone_module, "adjugate")
    bareiss = counting(lattice_module, "_bareiss")
    monkeypatch.setattr(lattice_module, "_bareiss", bareiss)
    matrix_rank = counting(cone_module, "matrix_rank")
    smith = counting(lattice_module, "smith_normal_form")
    monkeypatch.setattr(cone_module, "adjugate", adjugate)
    monkeypatch.setattr(cone_module, "matrix_rank", matrix_rank)
    for module in (lattice_module, semigroup_module, fan_module):
        monkeypatch.setattr(module, "smith_normal_form", smith)
    # pairings made while fan._incidence runs, in either module
    inside, pairings = [], []
    incidence = fan_module._incidence

    def watched_incidence(cone):
        inside.append(cone)
        try:
            return incidence(cone)
        finally:
            inside.pop()

    for module in (cone_module, fan_module):
        real = module.pairing
        monkeypatch.setattr(module, "pairing",
                            lambda u, v, real=real: pairings.extend(inside[-1:]) or real(u, v))
    monkeypatch.setattr(fan_module, "_incidence", watched_incidence)
    with runtime_budget(1.0, "work counts of analyze on (P^1)^4, a blown-up F_2 and P^2 x P^1"):
        for rank, cones in COMPLETE_FANS:
            rays = sorted({r for c in cones for r in c})
            path = tmp_path / "complete.json"
            path.write_text(json.dumps({"rank": rank, "rays": rays,
                                        "cones": [[rays.index(r) for r in c] for c in cones]}))
            adjugate.calls = bareiss.calls = matrix_rank.calls = smith.calls = 0
            assert main(["analyze", str(path), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["complete"] and report["smooth"]
            assert report["euler_characteristic"] == len(cones)
            assert report["class_rank"] == len(rays) - rank and report["class_torsion"] == []
            assert adjugate.calls == len(cones)
            assert bareiss.calls == (len(cones) if rank >= 4 else 0), rank
            assert matrix_rank.calls == 0 and smith.calls == 0 and pairings == []


def test_root_search_on_a_cone_with_twenty_rays():
    # a Fourier-Motzkin projection of this window takes minutes
    rays = [
        (-4, 3, 4, 0, 6), (-3, 1, -2, 3, 6), (-3, 4, 1, -4, 6), (-2, -3, 1, -4, 6),
        (-2, 1, 2, 2, 6), (-2, 4, -2, -1, 6), (-1, -2, -4, -2, 6), (-1, -2, -4, 3, 6),
        (-1, -2, 3, -2, 6), (-1, -1, 1, -4, 6), (-1, 4, -4, 2, 6), (0, 2, 0, -2, 3),
        (1, -1, 2, 1, 3), (2, -3, 1, 4, 6), (3, 1, 1, 4, 6), (3, 1, 2, -3, 6),
        (4, 0, -3, 0, 6), (4, 1, 1, 0, 6), (4, 1, 3, -2, 6), (4, 4, 1, 0, 6),
    ]
    rho, others = rays[0], rays[1:]
    # <e, rho> = -1, <e, r> >= 0 on the other rays
    rows = [(r, 0) for r in others]
    with runtime_budget(1.0, "roots along a ray of a rank-5 cone with 20 rays, radius 2"):
        roots = list(_box_points_in_lex_order((rho, 1), rows, 2))
    expected = [
        e for e in box_points(5, 2)
        if pairing(e, rho) == -1 and all(pairing(e, r) >= 0 for r in others)
    ]
    assert roots == expected
    assert len(roots) == 5


def _random_instance(rng):
    """Random (semigroup, derivation, monomial pair) from a rank<=3 fan."""
    while True:
        rank = rng.randint(1, 3)
        count = rng.randint(1, rank + 1)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
        cone = Cone.from_rays(gens, rank)
        if cone.lineality or not cone.rays:
            continue
        faces = [f for f in cone.faces() if f.rays]
        fan = Fan.from_cones(rng.sample(faces, rng.randint(1, len(faces))), rank)
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
        d = HomogeneousDerivation(rho, rng.choice(roots), s)

        def monomial():
            m = (0,) * rank
            for _ in range(rng.randint(0, 3)):
                m = add(m, rng.choice(s.generators))
            return m

        return s, d, monomial(), monomial()


def test_leibniz_and_nilpotency_property_suite():
    with runtime_budget(30.0, "Leibniz/homogeneity/nilpotency on 200 random instances"):
        rng = random.Random(73)
        violations = 0
        for _ in range(200):
            s, d, m1, m2 = _random_instance(rng)
            a = AlgebraElement.monomial(m1, rng.randint(1, 4))
            b = AlgebraElement.monomial(m2, rng.randint(-4, -1))
            if d(a * b) != d(a) * b + a * d(b):
                violations += 1
            for m in (m1, m2):
                image = d(AlgebraElement.monomial(m))
                if any(exp != add(d.degree, m) for exp, _ in image.terms()):
                    violations += 1
                step = -d.ray_pairing
                cap = 2 + abs(pairing(m, d.ray)) // max(1, step)
                if d.nilpotency_order(m, cap=cap) > cap:
                    violations += 1
        assert violations == 0


def test_nilpotency_orders_by_the_formula_match_repeated_application():
    with runtime_budget(10.0, "nilpotency orders against repeated application on 200 random instances"):
        rng = random.Random(79)
        for _ in range(200):
            s, d, m1, m2 = _random_instance(rng)
            for m in (m1, m2, *s.generators):
                nilpotency_orders_agree(d, m)


def test_dual_and_hilbert_oracle_equivalence():
    with runtime_budget(60.0, "dual involution + Hilbert basis oracle on 100 random cones"):
        rng = random.Random(4091)
        for _ in range(100):
            rank = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(-4, 4) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 1))
            ]
            cone = Cone.from_rays(gens, rank)
            assert cone.dual().dual() == cone
            dual = cone.dual()
            s = hilbert_basis(dual)
            for p in box_points(rank, 6, lo=0):
                assert s.contains(p) == semigroup_generates(s, p), (gens, p)
            for g in s.generators:
                assert not semigroup_generates_without(s, g, g), (gens, g)


def test_large_determinant_hilbert_bases():
    cones = []
    for rays in ([(1, 0, 0), (0, 1, 0), (17, 23, 31)],
                 [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 5, 7, 11)]):
        cone = Cone.from_rays(rays)
        cones += [cone, cone.dual()]
    with runtime_budget(1.0, "Hilbert bases of four cones with |det| 31 and 11"):
        bases = [hilbert_basis(cone) for cone in cones]
    for s in bases:
        rank = s.rank
        for p in box_points(rank, 3 if rank == 3 else 2):
            assert s.contains(p) == semigroup_generates(s, p), (s.cone, p)
        for g in s.generators:
            assert s.contains(g)
            assert not semigroup_generates_without(s, g, g), (s.cone, g)


def test_hilbert_bases_of_duals_with_determinant_97_and_197():
    # cone(e1, e2, (3, 5, d)) has |det| d; its dual's parallelepiped has
    # d^2 points, which the sieve reduces to a few dozen generators
    duals = {d: Cone.from_rays([(1, 0, 0), (0, 1, 0), (3, 5, d)]).dual() for d in (97, 197)}
    with runtime_budget(2.0, "Hilbert bases of the duals of two cones with |det| 97 and 197"):
        bases = {d: hilbert_basis(dual) for d, dual in duals.items()}
    assert {d: len(s.generators) for d, s in bases.items()} == {97: 32, 197: 50}
    for d, s in bases.items():
        assert s.units == ()
        assert list(s.generators) == sorted(pointed_hilbert_basis_contains_sieve(duals[d])), d


def test_plane_hilbert_bases_take_the_continued_fraction(tmp_path, capsys, monkeypatch):
    # the dual of cone((0, 1), (q, 1 - q)) is cone((1, 0), (q - 1, q)) with
    # |det| q, a walk of q points for three generators.  Every local cone of
    # rank 2 takes the continued fraction instead: also the quotient of the
    # dual of a plane in rank 3 by its units, and the dual of a support cone
    # with a line, which is a plane cone in rank 3
    counters = {name: counting(semigroup_module, name)
                for name in ("_plane_basis", "_parallelepiped_points", "adjugate",
                             "hermite_normal_form", "_simplicial_cover")}
    for name, counter in counters.items():
        monkeypatch.setattr(semigroup_module, name, counter)
    path = tmp_path / "cone.json"

    def generators(doc):
        path.write_text(json.dumps(doc))
        assert main(["hilbert-basis", str(path), "--json"]) == 0
        return json.loads(capsys.readouterr().out)["generators"]

    with runtime_budget(0.5, "hilbert-basis on cone((0, 1), (q, 1 - q)), q = 10^6 and 10^12"):
        for q in (10**6, 10**12):
            doc = {"rank": 2, "rays": [[0, 1], [q, 1 - q]], "cones": [[0, 1]]}
            assert generators(doc) == [[1, 0], [1, 1], [q - 1, q]]
    capsys.readouterr()  # the budget's PASS line
    plane = {"rank": 3, "rays": [[1, 0, 0], [13, 30, 0]], "cones": [[0, 1]]}
    assert generators(plane) == [[0, 1, 0], [1, 0, 0], [3, -1, 0], [5, -2, 0], [7, -3, 0],
                                 [30, -13, 0]]
    slab = {"rank": 3, "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 1, 3]],
            "cones": [[0, 2, 3], [1, 2, 3]]}
    assert generators(slab) == [[0, 0, 1], [0, 1, 0], [0, 3, -1]]
    calls = {name: counter.calls for name, counter in counters.items()}
    assert calls == {"_plane_basis": 4, "_parallelepiped_points": 0, "adjugate": 0,
                     "hermite_normal_form": 0, "_simplicial_cover": 0}


def test_quasi_affine_pipeline_verdicts():
    with runtime_budget(5.0, "quasi-affineness pipeline on the golden fans"):
        yes = [affine_space_fan(n) for n in (1, 2, 3, 4)]
        yes += [punctured_plane_fan(), axis_complement_fan(), torus_fan(1), torus_fan(2)]
        for fan in yes:
            verdict = fan.quasi_affine_verdict()
            assert verdict.quasi_affine, fan
        no = {
            "projective line": projective_line_fan(),
            "projective plane": projective_plane_fan(),
            "blow-up": blowup_plane_fan(),
            "Hirzebruch": hirzebruch_fan(),
        }
        for label, fan in no.items():
            verdict = fan.quasi_affine_verdict()
            assert not verdict.quasi_affine, label
            assert verdict.failed_step == "class_group", label
        spanning = yes[:4] + [punctured_plane_fan(), axis_complement_fan()] + list(no.values())
        for fan in spanning:
            if fan.split_torus_factor().torus_rank == 0:
                rank, _ = fan.class_group()
                assert rank == len(fan.rays) - fan.ambient_rank


def test_analyze_and_decompose_on_a_product_of_six_projective_lines(tmp_path, capsys):
    # (P^1)^6: 64 maximal cones, 2016 pairs to validate, 729 cones in the closure
    n = 6
    rays = [[int(j == i) * s for j in range(n)] for i in range(n) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=n)]
    path = tmp_path / "p1_power_6.json"
    path.write_text(json.dumps({"rank": n, "rays": rays, "cones": cones}))
    with runtime_budget(2.0, "analyze and decompose on (P^1)^6"):
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["decompose", str(path), "--json"]) == 0
        decomposition = json.loads(capsys.readouterr().out)
    assert report["smooth"] and report["complete"]
    assert report["edge_count"] == 12 and report["class_rank"] == 6
    assert report["euler_characteristic"] == 64
    assert report["failed_step"] == "class_group"
    assert decomposition["torus_factor_rank"] == 0
    assert len(decomposition["reduced_cones"]) == 64
    assert all(len(c) == n for c in decomposition["reduced_cones"])


def _write_fan(path, rank, cones):
    """Write cones, given as lists of ray vectors, as a fan document."""
    rays = sorted({tuple(r) for c in cones for r in c})
    index = {r: i for i, r in enumerate(rays)}
    cones = [sorted(index[tuple(r)] for r in c) for c in cones]
    path.write_text(json.dumps({"rank": rank, "rays": [list(r) for r in rays], "cones": cones}))
    return path


def test_analyze_and_decompose_on_a_product_of_seven_projective_lines(tmp_path, capsys):
    # (P^1)^7: 128 maximal cones, 8128 pairs, accepted by the pseudo-manifold certificate
    path = _write_fan(tmp_path / "p1_power_7.json", 7, p1_power_cones(7))
    with runtime_budget(1.0, "analyze and decompose on (P^1)^7"):
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["decompose", str(path), "--json"]) == 0
        decomposition = json.loads(capsys.readouterr().out)
    assert report["complete"] and report["euler_characteristic"] == 128
    assert report["class_rank"] == 7 and report["failed_step"] == "class_group"
    assert len(decomposition["reduced_cones"]) == 128


def test_certified_fans_skip_the_pair_loop(tmp_path, capsys, monkeypatch):
    # (P^1)^4 and a surface x P^1 are complete and simplicial; the sheared
    # orthant subfan has independent rays
    surface = [(1, 0), (1, 1), (0, 1), (-1, 2), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    surface_times_p1 = [
        [u + (0,), v + (0,), (0, 0, s)]
        for u, v in zip(surface, surface[1:] + surface[:1]) for s in (1, -1)
    ]
    sheared = [[0] * i + [1] + [3] * (3 - i) for i in range(4)]
    documents = [
        _write_fan(tmp_path / "p1_power_4.json", 4, p1_power_cones(4)),
        _write_fan(tmp_path / "surface_times_p1.json", 3, surface_times_p1),
        _write_fan(tmp_path / "sheared4.json", 4, [list(c) for c in combinations(sheared, 3)]),
    ]
    assert len(json.loads(documents[1].read_text())["rays"]) == 10

    def analyze(path):
        assert main(["analyze", str(path), "--json"]) == 0
        return capsys.readouterr().out

    with pair_loop_forced(monkeypatch) as checked:
        by_pair_loop = [analyze(path) for path in documents]
    assert len(checked) == len(documents)

    def never(*args):
        raise AssertionError("the pair loop ran")

    monkeypatch.setattr(fan_module, "_separated", never)
    monkeypatch.setattr(Cone, "intersect", never)
    with runtime_budget(1.0, "analyze on three fans without the pair loop"):
        assert [analyze(path) for path in documents] == by_pair_loop
    assert [json.loads(out)["quasi_affine"] for out in by_pair_loop] == [False, False, True]


def test_euler_and_fixed_point_consistency():
    with runtime_budget(1.0, "Euler characteristic and fixed-point witnesses"):
        for n in (1, 2, 3, 4):
            assert affine_space_fan(n).euler_characteristic() == 1
        assert projective_line_fan().euler_characteristic() == 2
        assert punctured_plane_fan().euler_characteristic() == 0
        golden = [
            affine_space_fan(1), affine_space_fan(2), affine_space_fan(3),
            punctured_plane_fan(), axis_complement_fan(), projective_line_fan(),
            projective_plane_fan(), blowup_plane_fan(), hirzebruch_fan(),
            torus_fan(1), torus_fan(2), line_times_torus_fan(),
        ]
        for fan in golden:
            chi = fan.euler_characteristic()
            for p in (2, 3, 5, 7):
                witness = fan.fixed_point_witness(p)
                if chi % p != 0:
                    assert witness.applicable
                    assert witness.fixed_cones
                else:
                    assert not witness.applicable
                    assert witness.fixed_cones == ()


def test_cli_golden_determinism_and_round_trip(capsys):
    with runtime_budget(5.0, "CLI determinism and document round-trip"):
        golden = sorted(DATA_DIR.glob("*.json"))
        assert golden
        for path in golden:
            doc = parse_fan_document(path.read_text())
            assert parse_fan_document(serialize_fan_document(doc)) == doc
            for command in ("analyze", "hilbert-basis", "decompose"):
                assert main([command, str(path), "--json"]) == 0
                first = capsys.readouterr().out
                assert main([command, str(path), "--json"]) == 0
                second = capsys.readouterr().out
                assert first.encode() == second.encode()
                json.loads(first)  # machine output is valid JSON
