import json
import warnings

import pytest

from torikit.cli import (
    fan_from_document,
    main,
    parse_fan_document,
    serialize_fan_document,
)
import torikit.fan as fan_module
from torikit import semigroup
from torikit.errors import DimensionError, FanDocumentError, IntegrityError

from conftest import DATA_DIR, counting
from test_golden import COMMANDS as GOLDEN_COMMANDS

GOLDEN = sorted(DATA_DIR.glob("*.json"))
COMMANDS = ["analyze", "hilbert-basis", "decompose"]


def test_parse_affine_plane():
    doc = parse_fan_document('{"rank":2,"rays":[[1,0],[0,1]],"cones":[[0,1]]}')
    assert doc.rank == 2
    assert doc.rays == ((1, 0), (0, 1))
    assert doc.cones == ((0, 1),)
    fan = fan_from_document(doc)
    assert fan.euler_characteristic() == 1


def test_parse_punctured_plane():
    doc = parse_fan_document('{"rank":2,"rays":[[1,0],[0,1]],"cones":[[0],[1]]}')
    fan = fan_from_document(doc)
    assert fan.euler_characteristic() == 0


def test_parse_rejects_out_of_range_index():
    with pytest.raises(FanDocumentError):
        parse_fan_document('{"rank":2,"rays":[[1,0]],"cones":[[0,1]]}')


def test_parse_rejects_unknown_fields():
    with pytest.raises(FanDocumentError):
        parse_fan_document('{"rank":1,"rays":[[1]],"cones":[[0]],"extra":true}')


def test_parse_rejects_duplicate_rays():
    with pytest.raises(FanDocumentError):
        parse_fan_document('{"rank":1,"rays":[[1],[1]],"cones":[[0]]}')


def test_parse_rejects_missing_fields():
    with pytest.raises(FanDocumentError):
        parse_fan_document('{"rank":1,"rays":[[1]]}')


def test_parse_rejects_bad_json():
    with pytest.raises(FanDocumentError) as exc:
        parse_fan_document("{not json")
    assert "line" in str(exc.value)


def test_parse_rejects_wrong_vector_length():
    with pytest.raises(FanDocumentError):
        parse_fan_document('{"rank":2,"rays":[[1]],"cones":[[0]]}')


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_round_trip(path):
    doc = parse_fan_document(path.read_text())
    assert parse_fan_document(serialize_fan_document(doc)) == doc


def test_exit_code_success(capsys):
    assert main(["analyze", str(DATA_DIR / "a2.json")]) == 0
    assert capsys.readouterr().out


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank":2,"rays":[[1,0]],"cones":[[0,3]]}')
    assert main(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_not_a_fan(tmp_path, capsys):
    bad = tmp_path / "overlap.json"
    bad.write_text(json.dumps({
        "rank": 2,
        "rays": [[1, 0], [0, 1], [1, 2]],
        "cones": [[0, 1], [0, 2]],
    }))
    assert main(["analyze", str(bad)]) == 2


@pytest.mark.parametrize("rays, cones, message", [
    ([[1, 0], [0, 0]], [[0], [1]], "ray 1 is zero"),
    ([[0, 1], [2, 0]], [[0, 1]], "ray 1 is not primitive"),
    ([[1, 0], [1, 1], [0, 1]], [[0, 1, 2]], "ray 1 is not an extremal ray of cone 0"),
    ([[1, 0], [0, 1]], [[0]], "ray 1 is not listed in any cone"),
], ids=["zero", "non_primitive", "not_extremal", "unlisted"])
def test_exit_code_rays_taken_as_written(rays, cones, message, tmp_path, capsys):
    bad = tmp_path / "rays.json"
    bad.write_text(json.dumps({"rank": 2, "rays": rays, "cones": cones}))
    assert main(["analyze", str(bad), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cones, step", [([[0, 1]], "smoothness"), ([[0], [1]], "class_group")])
def test_ga_actions_agrees_with_analyze(cones, step, tmp_path, capsys):
    doc = tmp_path / "not_quasi_affine.json"
    doc.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 2]], "cones": cones}))
    assert main(["analyze", str(doc), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quasi_affine"] is False
    assert report["failed_step"] == step
    assert main(["ga-actions", str(doc), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"failed step {step}" in captured.err


def test_exit_code_missing_file(capsys):
    assert main(["analyze", str(DATA_DIR / "does_not_exist.json")]) == 2


def test_exit_code_math_precondition(capsys):
    assert main(["ga-actions", str(DATA_DIR / "torus2.json")]) == 3
    assert main(["ga-actions", str(DATA_DIR / "a1_times_torus.json")]) == 3
    assert main(["ga-actions", str(DATA_DIR / "p1.json")]) == 3


def test_ga_actions_names_a_radius_with_a_root_when_its_windows_have_none(tmp_path, capsys):
    # minus the dual-basis vector that is 1 on the chosen ray (1, 0) is the
    # root (-1, 100), outside every window the doubling loop searches
    doc = tmp_path / "far_root.json"
    doc.write_text('{"rank":2,"rays":[[1,0],[100,1]],"cones":[[0],[1]]}')
    assert main(["ga-actions", str(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[-1, 100]" in captured.err and "--radius 100" in captured.err
    assert main(["ga-actions", str(doc), "--radius", "100", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["root_degree"] == [-1, 100]


def test_ga_actions_rejects_a_torus_factor_before_building_a_semigroup(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a semigroup was built")

    monkeypatch.setattr(semigroup, "hilbert_basis", never)
    monkeypatch.setattr(fan_module, "fan_coordinate_semigroup", never)
    assert main(["ga-actions", str(DATA_DIR / "a1_times_torus.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: rays do not span the ambient space; split off the torus factor first\n"
    )


@pytest.mark.parametrize("error", [IntegrityError, DimensionError])
def test_exit_code_internal_error(error, tmp_path, monkeypatch, capsys):
    def broken(gens):
        raise error("injected fault")

    # the dual of cone((1, 0), (1, 2)) has |det| 2, so its one piece is walked
    path = tmp_path / "a1_quotient.json"
    path.write_text('{"rank":2,"rays":[[1,0],[1,2]],"cones":[[0,1]]}')
    monkeypatch.setattr(semigroup, "_parallelepiped_points", broken)
    assert main(["hilbert-basis", str(path), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: injected fault\n"


def test_exit_code_internal_error_on_a_sieve_outside_span_coordinates(
    tmp_path, monkeypatch, capsys
):
    # the support cone of the half-plane fan has lineality, so its dual is
    # a ray, a pointed cone of lower dimension; with the whole lattice as
    # its "span" it is not full-dimensional, which the value-tuple sieve
    # refuses
    path = tmp_path / "half_plane.json"
    path.write_text('{"rank":2,"rays":[[1,0],[0,1],[-1,0]],"cones":[[0,1],[1,2]]}')
    monkeypatch.setattr(semigroup, "saturated_span", lambda rays: ((1, 0), (0, 1)))
    assert main(["hilbert-basis", str(path), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: the pointed cone is not full-dimensional in its span\n"
    )


def test_ga_actions_succeeds_on_affine_plane(capsys):
    assert main(["ga-actions", str(DATA_DIR / "a2.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["character_rank"] == 2
    assert report["character_determinant"] != 0
    assert report["boundary_annihilation_verified"] is True


def test_every_command_builds_at_most_one_hilbert_basis(monkeypatch, capsys):
    # ga-actions reads its wall generators off the verdict's semigroup
    pointed = counting(semigroup, "_irreducible_points")
    monkeypatch.setattr(semigroup, "_irreducible_points", pointed)
    successes = 0
    for path in GOLDEN:
        for command in GOLDEN_COMMANDS:
            before = pointed.calls
            code = main([command[0], str(path), *command[1:], "--json"])
            capsys.readouterr()
            runs = pointed.calls - before
            assert runs <= 1, (path.name, command)
            if command[0] == "ga-actions" and code == 0:
                assert runs == 1, (path.name, command)
                successes += 1
    assert successes == 12


def test_roots_command(capsys):
    assert main(["roots", str(DATA_DIR / "a1.json"), "--ray", "0", "--radius", "5",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["roots"] == [[-1]]


@pytest.mark.parametrize("command, radius", [
    ("ga-actions", "0"),
    ("ga-actions", "-3"),
    ("roots", "0"),
])
def test_radius_must_be_positive(command, radius, capsys):
    # the ga-actions doubling loop never leaves radius 0
    assert main([command, str(DATA_DIR / "a2.json"), "--radius", radius]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: radius must be at least 1\n"


def test_roots_rejects_bad_ray_index(capsys):
    assert main(["roots", str(DATA_DIR / "a1.json"), "--ray", "7"]) == 2


def test_decompose_command(capsys):
    assert main(["decompose", str(DATA_DIR / "a1_times_torus.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["torus_factor_rank"] == 1
    assert report["reduced_rank"] == 1
    assert report["reduced_rays"] == [[1]]


def test_hilbert_basis_command(capsys):
    assert main(["hilbert-basis", str(DATA_DIR / "a2_minus_origin.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generators"] == [[0, 1], [1, 0]]
    assert report["units"] == []


def test_human_and_machine_outputs_agree(capsys):
    for path in GOLDEN:
        assert main(["analyze", str(path), "--json"]) == 0
        machine = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(path)]) == 0
        human = capsys.readouterr().out
        for key, value in machine.items():
            assert f"{key}:" in human
            if not isinstance(value, (list, dict)):
                assert f"{key}: {json.dumps(value)}" in human


@pytest.mark.parametrize("command", COMMANDS)
def test_machine_output_deterministic(command, capsys):
    for path in GOLDEN:
        assert main([command, str(path), "--json"]) == 0
        first = capsys.readouterr().out
        assert main([command, str(path), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize("command", ["hilbert-basis", "roots"])
def test_a_huge_parallelepiped_walk_warns_first(command, tmp_path, monkeypatch, capsys):
    # the dual of cone((1, 0), (1, d)) is one piece with |det| = d
    def walked(gens):
        raise IntegrityError("walked")

    monkeypatch.setattr(semigroup, "_parallelepiped_points", walked)
    path = tmp_path / "wide.json"
    for d, warned in ((10**20, True), (10**7 + 1, True), (10**7, False)):
        path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, d]], "cones": [[0, 1]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), "--json"]) == 4
        assert capsys.readouterr().err == "error: internal: walked\n"
        # the walk raised, so any warning came before it
        expected = [f"the simplicial cover has {d} parallelepiped points; "
                    "the walk will take long"] if warned else []
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is RuntimeWarning for w in caught)
