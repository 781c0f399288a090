import json
import random
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import torikit.cli as cli
import torikit.derivations as derivations
from torikit.cli import (
    COMMANDS as CLI_COMMANDS,
    _layout,
    _parse_plain,
    _read_text,
    fan_from_document,
    main,
    parse_fan_document,
    serialize_fan_document,
)
import torikit.fan as fan_module
import torikit.lattice as lattice_module
from torikit import Cone, semigroup
from torikit.errors import DimensionError, FanDocumentError, IntegrityError

from conftest import DATA_DIR, counting, counting_walks
from _oracles import fan_from_document_per_cone
from test_fuzz import COMMANDS as FUZZ_COMMANDS
from test_golden import COMMANDS as GOLDEN_COMMANDS, _documents as golden_documents

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


@pytest.mark.parametrize("rays, cones, message", [
    ({"0": [1]}, [[0]], "field 'rays' must be a list of integer vectors"),
    ([[1]], {"0": [0]}, "field 'cones' must be a list of index lists"),
    ([[1]], [0], "cone 0 is not a list of ray indices"),
    ([[1]], [[0], [True]], "cone 1 is not a list of ray indices"),
    ([[1]], [[0.0]], "cone 0 is not a list of ray indices"),
], ids=["rays_not_a_list", "cones_not_a_list", "cone_not_a_list", "bool_index", "float_index"])
def test_parse_rejects_rays_and_cones_of_the_wrong_shape(rays, cones, message):
    with pytest.raises(FanDocumentError) as exc:
        parse_fan_document(json.dumps({"rank": 1, "rays": rays, "cones": cones}))
    assert str(exc.value) == message


# Python's int-string digit limit: 0 where it is switched off or, before 3.10.7, absent
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("content, message", [
    (b"[" * 100000, "invalid JSON: nested too deeply"),
    (b'{"rank": 1, "rays": [[1' + b"0" * 4999 + b']], "cones": [[0]]}',
     "invalid JSON: integer literal too long" if 0 < DIGIT_LIMIT < 5000
     else "ray 0 is not primitive"),
    (b'\xff{"rank": 1, "rays": [[1]], "cones": [[0]]}', "'utf-8' codec can't decode byte 0xff"),
    (b'{"rank": 1, "rank": 2, "rays": [[1, 0]], "cones": [[0]]}',
     "duplicate fields are not allowed"),
], ids=["nested_too_deeply", "5000_digit_integer", "not_utf8", "duplicate_field"])
def test_malformed_document_exits_2_with_one_error_line(content, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_document_lines_end_at_cr_lf_and_cr_as_in_text_mode(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"rank": 1,\r"rays": [[1]],\r\n"cones": x}')
    assert main(["analyze", str(path), "--json"]) == 2
    assert capsys.readouterr().err == "error: invalid JSON at line 3, column 10: Expecting value\n"


@pytest.mark.parametrize("content", [
    b"", b'{"rank": 0}', b"a\r\nb\rc\n\r", "é∑".encode() * 40000,
], ids=["empty", "one_line", "cr_lf_and_cr", "chunks_split_mid_character"])
def test_documents_read_as_in_text_mode(content, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert _read_text(str(path)) == path.read_text(encoding="utf-8")


def test_a_directory_is_reported_with_its_path_as_open_does(tmp_path, capsys):
    with pytest.raises(IsADirectoryError) as exc:
        open(tmp_path, encoding="utf-8")
    assert main(["analyze", str(tmp_path), "--json"]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_parse_reports_a_byte_order_mark_as_json_does():
    with pytest.raises(FanDocumentError) as exc:
        parse_fan_document('\ufeff{"rank":1,"rays":[[1]],"cones":[[0]]}')
    assert str(exc.value) == (
        "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


def test_command_table_readme_golden_and_fuzz_name_the_same_commands():
    readme = (DATA_DIR.parent.parent / "README.md").read_text()
    listed = re.findall(r"^torikit ([\w-]+) ", readme, re.M)
    assert listed == list(CLI_COMMANDS)
    assert list(dict.fromkeys(c[0] for c in GOLDEN_COMMANDS)) == listed
    assert list(dict.fromkeys(c[0] for c in FUZZ_COMMANDS)) == listed
    # each row's options are the ones the golden and fuzz command lines use
    used = {name: set() for name in CLI_COMMANDS}
    for line in GOLDEN_COMMANDS + FUZZ_COMMANDS:
        used[line[0]].update(word for word in line[1:] if word.startswith("--"))
    assert used == {name: {flag for flag, _ in row[2]} for name, row in CLI_COMMANDS.items()}


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
    ([[1, 0], [-1, 0]], [[0, 1]], "cone 0 is not strongly convex"),
    ([[1, 0], [0, 1], [-1, 0]], [[0], [0, 1, 2]], "cone 1 is not strongly convex"),
], ids=["zero", "non_primitive", "not_extremal", "unlisted", "not_strongly_convex",
        "second_not_strongly_convex"])
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


def test_ga_actions_search_doubles_past_the_radius_cap(tmp_path, capsys):
    # the radius doubles while it is below 48, so from 47 the last window has radius 94
    doc = tmp_path / "far_root.json"
    doc.write_text('{"rank":2,"rays":[[1,0],[100,1]],"cones":[[0],[1]]}')
    assert main(["ga-actions", str(doc), "--radius", "47"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no admissible degree within radius 94;" in captured.err


def test_ga_actions_reports_a_degree_that_does_not_fix_the_boundary(
    tmp_path, monkeypatch, capsys
):
    # with (-5, -1) taken as the root along the chosen ray (0, 1), the image of
    # x^(0, 1) under the first derivation has exponent (-3, 0), which pairs
    # negatively with the boundary ray (1, 0)
    monkeypatch.setattr("torikit.derivations.is_root", lambda *args: True)
    monkeypatch.setattr("torikit.derivations._root_search", lambda *args: iter([(-5, -1)]))
    doc = tmp_path / "punctured_plane.json"
    doc.write_text('{"rank":2,"rays":[[1,0],[0,1]],"cones":[[0],[1]]}')
    assert main(["ga-actions", str(doc), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal:")


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
    def broken(gens, normals):
        raise error("injected fault")

    # the dual of this rank-3 cone is cone(e1, e2, (1, 1, 2)), one piece with
    # |det| 2, so it is walked; a rank-2 cone takes the continued fraction
    path = tmp_path / "walked.json"
    path.write_text('{"rank":3,"rays":[[2,0,-1],[0,2,-1],[0,0,1]],"cones":[[0,1,2]]}')
    monkeypatch.setattr(semigroup, "_parallelepiped_points", broken)
    assert main(["hilbert-basis", str(path), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: injected fault\n"


def test_exit_code_internal_error_on_a_sieve_outside_span_coordinates(
    tmp_path, monkeypatch, capsys
):
    # the support cone of this fan has lineality, so its dual is the plane
    # cone((1, 0, 0), (1, 2, 0)), a pointed cone of lower dimension that is
    # not smooth (a smooth one keeps its rays with no quotient); with the
    # whole lattice as its "span" it is not full-dimensional, which the
    # value-tuple sieve refuses
    path = tmp_path / "slab.json"
    path.write_text('{"rank":3,"rays":[[0,1,0],[2,-1,0],[0,0,1],[0,0,-1]],'
                    '"cones":[[0,1,2],[0,1,3]]}')
    monkeypatch.setattr(semigroup, "saturated_span",
                        lambda rays: ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert main(["hilbert-basis", str(path), "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal: the pointed cone is not full-dimensional in its span\n"
    )


def test_a_smooth_dual_of_lower_dimension_keeps_its_rays_with_no_smith_form(
    tmp_path, monkeypatch, capsys
):
    # P^1 x A^2: the support cone has the lineality (1, 0, 0), and its dual
    # cone(e_2, e_3) is pointed, of lower dimension and smooth, so its rays
    # are its generators without the Smith form of a saturated span
    path = tmp_path / "p1_times_a2.json"
    path.write_text('{"rank":3,"rays":[[1,0,0],[-1,0,0],[0,1,0],[0,0,1]],'
                    '"cones":[[0,2,3],[1,2,3]]}')
    smith = counting(lattice_module, "smith_normal_form")
    for module in (lattice_module, semigroup):
        monkeypatch.setattr(module, "smith_normal_form", smith)
    assert main(["hilbert-basis", str(path), "--json"]) == 0
    assert smith.calls == 0
    assert capsys.readouterr().out == (
        '{\n  "generators": [\n    [\n      0,\n      0,\n      1\n    ],\n'
        '    [\n      0,\n      1,\n      0\n    ]\n  ],\n  "name": null,\n'
        '  "rank": 3,\n  "units": []\n}\n')


def test_ga_actions_succeeds_on_affine_plane(capsys):
    assert main(["ga-actions", str(DATA_DIR / "a2.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["character_rank"] == 2
    assert report["character_determinant"] != 0
    assert report["boundary_annihilation_verified"] is True


def test_every_command_builds_at_most_one_hilbert_basis(monkeypatch, capsys, tmp_path):
    # ga-actions reads its wall generators off the verdict's semigroup; a
    # passing verdict with no torus factor makes the rays a lattice basis,
    # so σ^∨ is a unimodular simplex, whose rays are taken with no walk
    pointed = counting(semigroup, "_irreducible_points")
    monkeypatch.setattr(semigroup, "_irreducible_points", pointed)
    walks = counting_walks(monkeypatch)
    successes = 0
    for path in GOLDEN:
        for command in GOLDEN_COMMANDS:
            before, walked = pointed.calls, sum(w.calls for w in walks.values())
            code = main([command[0], str(path), *command[1:], "--json"])
            capsys.readouterr()
            assert pointed.calls - before <= 1, (path.name, command)
            if command[0] == "ga-actions" and code == 0:
                assert sum(w.calls for w in walks.values()) == walked, (path.name, command)
                successes += 1
    assert successes == 12
    # the dual of a singular cone still has its Hilbert basis sieved, once
    path = tmp_path / "singular.json"
    path.write_text('{"rank":3,"rays":[[1,0,0],[0,1,0],[1,1,2]],"cones":[[0,1,2]]}')
    before, sieved = pointed.calls, walks["_sieved_points"].calls
    assert main(["hilbert-basis", str(path), "--json"]) == 0
    assert (pointed.calls - before, walks["_sieved_points"].calls - sieved) == (1, 1)
    # the three rays of the dual and three points that the sieve finds
    assert len(json.loads(capsys.readouterr().out)["generators"]) == 6


def test_no_command_builds_a_cone_from_the_same_rays_twice(monkeypatch, capsys, tmp_path):
    # the support cone that a document with at most rank rays builds first is
    # the one certificate A, the class group and the semigroup read; only the
    # cones on the document's own rays are counted (the reduced fan of a torus
    # factor and the pointed quotient of a dual have rays of their own)
    real = Cone.from_rays
    lists = []

    def recorded(generators, ambient_rank=None):
        generators = tuple(sorted(map(tuple, generators)))
        lists.append((ambient_rank, generators))
        return real(generators, ambient_rank)

    monkeypatch.setattr(Cone, "from_rays", recorded)
    path = tmp_path / "fan.json"
    for label, text in golden_documents().items():
        doc = parse_fan_document(text)
        path.write_text(text)
        for command in GOLDEN_COMMANDS:
            lists.clear()
            main([command[0], str(path), *command[1:], "--json"])
            capsys.readouterr()
            own = [rays for rank, rays in lists if rank == doc.rank and set(rays) <= set(doc.rays)]
            assert len(set(own)) == len(own), (label, command, own)


@pytest.mark.parametrize("text, error", [
    ('{"rank":3,"rays":[[1,0,0],[0,1,0],[1,1,0]],"cones":[[0,1,2]]}',
     "ray 2 is not an extremal ray of cone 0"),
    ('{"rank":3,"rays":[[1,0,0],[0,1,0],[1,1,0]],"cones":[[2],[0,1,2]]}',
     "ray 2 is not an extremal ray of cone 1"),
    ('{"rank":2,"rays":[[1,0],[-1,0]],"cones":[[0],[0,1]]}', "cone 1 is not strongly convex"),
    ('{"rank":3,"rays":[[1,0,0],[-1,0,0],[0,1,0]],"cones":[[0,2],[1,2]]}', None),
    ('{"rank":3,"rays":[[1,0,0],[0,1,0],[1,1,0]],"cones":[[0,2],[1,2]]}', None),
    ('{"rank":3,"rays":[[1,0,0],[0,1,0],[0,0,1],[0,0,-1],[1,1,0]],'
     '"cones":[[0,1,2],[0,4,1],[0,1,3]]}', "ray 4 is not an extremal ray of cone 1"),
    ('{"rank":3,"rays":[[1,0,0],[0,1,0],[0,0,1],[-1,0,0]],"cones":[[0,1,2],[1,2,3],[0,3,1]]}',
     "cone 2 is not strongly convex"),
])
def test_dependent_rays_are_checked_cone_by_cone(monkeypatch, capsys, tmp_path, text, error):
    # with at most rank rays but dependent ones, the support cone is no
    # simplex, and each cone is built and checked as the per-cone path does;
    # with more, so is a cone that lists rank dependent rays, where a cone
    # that lists rank independent ones is a full simplex with no such check
    doc = parse_fan_document(text)
    if error is None:
        fan = fan_from_document(doc)
        assert fan.maximal_cones() == fan_from_document_per_cone(doc).maximal_cones()
        assert fan.support_cone() == fan_from_document_per_cone(doc).support_cone()
        return
    path = tmp_path / "fan.json"
    path.write_text(text)
    for build in (fan_from_document, fan_from_document_per_cone):
        with pytest.raises(FanDocumentError, match=f"^{error}$"):
            build(doc)
        monkeypatch.setattr(cli, "fan_from_document", build)
        assert main(["analyze", str(path), "--json"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_ga_actions_computes_one_table_of_nilpotency_orders(monkeypatch, capsys):
    # every derivation of the family shares the ray, the semigroup and the ray
    # pairing, so the report asks for each generator's order once, not once per
    # derivation
    order = counting(derivations.HomogeneousDerivation, "nilpotency_order")
    monkeypatch.setattr(derivations.HomogeneousDerivation, "nilpotency_order", order)
    assert main(["ga-actions", str(DATA_DIR / "a3.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["character_rank"] == len(report["derivations"]) == 3
    assert order.calls == 3
    tables = [d["nilpotency_orders_on_generators"] for d in report["derivations"]]
    assert len(tables[0]) == 3 and tables == tables[:1] * 3


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
    # the dual of cone((d, 0, -1), (0, d, -1), (0, 0, 1)) is cone(e1, e2, (1, 1, d)),
    # one piece with |det| = d; a rank-2 cone is not walked at all.  The rank-5
    # document's dual is one piece with |det| 2,108,304, whose walk would take
    # seconds and hundreds of MB, so it warns too
    def walked(gens, normals):
        raise IntegrityError("walked")

    monkeypatch.setattr(semigroup, "_parallelepiped_points", walked)
    path = tmp_path / "wide.json"
    documents = [({"rank": 3, "rays": [[d, 0, -1], [0, d, -1], [0, 0, 1]], "cones": [[0, 1, 2]]},
                  d, warned)
                 for d, warned in ((10**20, True), (10**6 + 1, True), (10**6, False))]
    documents.append(({"rank": 5, "rays": [[1, 0, 3, 1, 0], [-3, 0, 3, -1, -2], [-1, 0, -3, 3, 2],
                                           [0, 1, -3, -3, 2], [-1, 1, -2, 1, -2]],
                       "cones": [[2, 3, 4], [0, 1, 3, 4]]}, 2108304, True))
    for document, d, warned in documents:
        path.write_text(json.dumps(document))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), "--json"]) == 4
        assert capsys.readouterr().err == "error: internal: walked\n"
        # the walk raised, so any warning came before it
        expected = [f"the simplicial cover has {d} parallelepiped points; "
                    "the walk will take long"] if warned else []
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is RuntimeWarning for w in caught)


def test_a_plane_cone_with_many_generators_warns_first(tmp_path, monkeypatch, capsys):
    # the dual of cone((0, 1), (d, -1)) is cone((1, 0), (1, d)), whose d + 1
    # generators (1, j) lie on one edge, counted before they are listed
    monkeypatch.setattr(semigroup, "MAX_PARALLELEPIPED_POINTS", 10)
    path = tmp_path / "edge.json"
    for d, warned in ((10, True), (9, False)):
        path.write_text(json.dumps({"rank": 2, "rays": [[0, 1], [d, -1]], "cones": [[0, 1]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["hilbert-basis", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["generators"] == [[1, j] for j in range(d + 1)]
        expected = [f"the plane cone has {d + 1} generators; "
                    "listing them will take long"] if warned else []
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is RuntimeWarning for w in caught)


# -- argv: the plain shape without argparse, everything else through it --------

VALUES = ["4", "-3", "0", "007", "+4", " 4", "4_0", "\u0664", "5" * 5000, "x", "", "-", "--4",
          "--json"]
ARGV_TAILS = [["--json"], ["--radius"], ["--ray"], ["--radius=4"], ["--rad", "4"], ["-h"],
              ["--help"], ["--"], ["other.json"], ["--bogus"]]


def _random_argv(rng):
    heads = [*CLI_COMMANDS, "nope", "-h", "--json"]
    files = ["fan.json", "", "-f", "--json", "analyze"]
    argv = [rng.choice(heads), rng.choice(files)][: rng.choice((0, 1, 2, 2, 2, 2))]
    for _ in range(rng.randrange(5)):
        tail = rng.choice(ARGV_TAILS)
        argv += tail + [rng.choice(VALUES)] if tail[0] in ("--radius", "--ray") else tail
    return argv


def test_plain_argv_parses_as_argparse_does(capsys):
    # the named shapes first, then a seeded token grammar around the plain shape
    argvs = [
        ["roots", "fan.json", "--radius=4"], ["roots", "fan.json", "--rad", "4"],
        ["analyze", "fan.json", "-h"], ["analyze", "--", "fan.json"],
        ["roots", "fan.json", "--radius", "+4"], ["roots", "fan.json", "--radius", " 4"],
        ["roots", "fan.json", "--radius", "4_0"], ["roots", "fan.json", "--ray", "\u0664"],
        ["roots", "fan.json", "--radius", "-3", "--json", "--json"],
        ["analyze", "fan.json", "other.json"], ["analyze", "fan.json", "--radius", "4"],
        ["ga-actions", "fan.json", "--ray", "0"], ["roots", "fan.json", "--radius", "5" * 5000],
    ]
    rng = random.Random(7)
    argvs += [_random_argv(rng) for _ in range(4000)]
    taken = 0
    for argv in argvs:
        fast = _parse_plain(argv)
        try:
            expected = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            assert fast is None, argv
            continue
        finally:
            capsys.readouterr()
        if fast is not None:
            assert vars(fast) == expected, argv
            taken += 1
    assert taken > 100
    assert _parse_plain(["roots", "fan.json", "--radius", "-3", "--json", "--json"])
    if 0 < DIGIT_LIMIT < 5000:
        assert _parse_plain(["roots", "fan.json", "--radius", "5" * 5000]) is None


def test_every_bench_argv_shape_runs_without_argparse(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    import workloads

    argvs = {}
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, 1)
        (tmp_path / name).mkdir()
        for op, argv in zip(ops, workloads.write_documents(ops, tmp_path / name)):
            argvs.setdefault((op.command, op.args[::2]), argv)
    expected = {}
    for shape, argv in argvs.items():
        expected[shape] = main(argv), capsys.readouterr()

    def no_argparse():
        raise AssertionError("argparse was built")

    monkeypatch.setattr(cli, "_build_parser", no_argparse)
    assert len(argvs) == 5
    for shape, argv in argvs.items():
        assert (main(argv), capsys.readouterr()) == expected[shape], shape
    monkeypatch.setattr(sys, "argv", ["torikit", *argvs["analyze", ()]])
    assert (main(), capsys.readouterr()) == expected["analyze", ()]


def test_help_usage_and_errors_are_argparse_bytes(capsys):
    fan = str(DATA_DIR / "a2.json")
    for argv in (["--help"], ["analyze", "--help"], ["roots", "-h"], [], ["nope", fan],
                 ["roots", fan, "--radius", "x"], ["roots", fan, "--ra", "4"],
                 ["analyze", fan, "--radius", "4"], ["analyze"], ["analyze", fan, "extra"]):
        with pytest.raises(SystemExit) as direct:
            cli._build_parser.__wrapped__().parse_args(argv)
        expected = direct.value.code, capsys.readouterr()
        with pytest.raises(SystemExit) as run:
            main(argv)
        assert (run.value.code, capsys.readouterr()) == expected, argv
    # abbreviations and the = form reach the report through argparse
    full = ["roots", fan, "--radius", "2", "--json"]
    assert main(full) == 0
    expected = capsys.readouterr()
    for argv in (["roots", fan, "--rad", "2", "--json"], ["roots", fan, "--radius=2", "--js"]):
        assert _parse_plain(argv) is None
        assert main(argv) == 0
        assert capsys.readouterr() == expected


# -- the --json layout ----------------------------------------------------------

_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(min_value=-10**400, max_value=10**400), st.text(max_size=8))
_int_rows = st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=5)
_reports = st.recursive(
    st.one_of(_scalars, _int_rows, st.lists(_int_rows, max_size=4),
              st.lists(_int_rows.map(tuple), max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20,
)


# one list object met again, at one indent and at another, as the one
# nilpotency table of every ga-actions derivation is
_SHARED = [1, (2, 3)]
_TABLE = [((1, 0, 2), 3), ((0, 1, 0), 1)]


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(value=_reports)
@example(value={"a": [_SHARED, _SHARED], "b": _SHARED, "c": [[_SHARED]]})
@example(value=[{"o": _TABLE}, {"o": _TABLE}])
@example(value=[1, True, -2])
@example(value=[(1, 2), (True,), (3,)])
@example(value=[[1], [], [2]])
@example(value=[((1, 2), 3), ((0,), True), ((-4, 5), -10**30), ((), 0)])
@example(value=({"\x00\u00e9\U0001f600": [(-10**300, 0), [5]], "": ([], {}, ())},))
def test_layout_is_the_indented_json_dumps(value):
    assert _layout(value) == json.dumps(value, sort_keys=True, indent=2)


def test_layout_refuses_what_json_refuses():
    for value in (Fraction(1, 2), {1, 2}, {"a": [0, (Fraction(1, 2),)]}, [[1, {2}]]):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _layout(value)
