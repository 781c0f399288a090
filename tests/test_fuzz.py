"""Fuzz test of the command line: fan documents, well formed or not, through every command.

Every command must end with a documented exit code for bad input or a
failed precondition (never 4, an internal error), write no traceback,
and give the same bytes, warnings included, when run twice.  ``ga-actions``
must succeed exactly where ``analyze`` finds a quasi-affine fan with rays
and no torus factor, and reject every document that ``analyze`` rejects.
"""

import contextlib
import io
import json
import warnings
from math import gcd

from hypothesis import given, settings, strategies as st

from torikit.cli import main

COMMANDS = [
    ["analyze"],
    ["hilbert-basis"],
    ["roots", "--ray", "0"],
    ["roots", "--ray", "1", "--radius", "2"],
    ["ga-actions", "--radius", "2"],
    ["decompose"],
]

MALFORMED = [
    "",
    "[]",
    '{"rank": 2}',
    '{"rank": -1, "rays": [], "cones": []}',
    '{"rank": 1, "rays": [[true]], "cones": [[0]]}',
    '{"rank": 2, "rays": [[1, 0]], "cones": [[0]], "extra": 1}',
    '{"rank": 2, "rays": [[1, 0]], "cones": [[0, 0]]}',
    '{"rank": 2, "rays": [[1, 0], [1, 0]], "cones": [[0], [1]]}',
    '{"rank": 1, "rays": [[1]], "cones": [[0]], "name": 3}',
]


@st.composite
def fan_documents(draw):
    """Mostly documents whose rays are valid and all listed; the others break a rule."""
    rank = draw(st.integers(0, 3))
    rays = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                         max_size=5))
    if draw(st.integers(0, 4)):
        # distinct primitive nonzero rays, each listed in some cone
        clean = {tuple(x // gcd(*r) for x in r) for r in rays if any(r)}
        rays = [list(r) for r in sorted(clean)]
        cones = draw(st.lists(st.lists(st.integers(0, len(rays) - 1), max_size=rank + 1,
                                       unique=True), max_size=4)) if rays else []
        listed = {i for c in cones for i in c}
        cones += [[i] for i in range(len(rays)) if i not in listed]
    else:
        # index len(rays) is out of range, so some of these fail to parse
        index = st.integers(0, len(rays))
        cones = draw(st.lists(st.lists(index, max_size=rank + 1, unique=True), max_size=4))
    doc = {"rank": rank, "rays": rays, "cones": cones}
    if draw(st.booleans()):
        doc["name"] = draw(st.text(max_size=4))
    return json.dumps(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def test_every_command_is_total_and_deterministic(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "fan.json"

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(text=st.one_of(fan_documents(), st.sampled_from(MALFORMED)))
    def check(text):
        path.write_text(text)
        results = {}
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:], "--json"]
            first = _run(argv)
            code, _, err, _ = first
            assert code in (0, 2, 3), (text, command, err)
            assert "Traceback" not in err
            assert _run(argv) == first, (text, command)
            results[command[0]] = first
        # ga-actions runs exactly on the fans that analyze accepts with no torus factor
        analyze_code, analyze_out, _, _ = results["analyze"]
        ga_code = results["ga-actions"][0]
        report = json.loads(analyze_out) if analyze_code == 0 else None
        accepted = bool(report) and report["quasi_affine"] \
            and report["torus_factor_rank"] == 0 and report["edge_count"] > 0
        assert (ga_code == 0) == accepted, (text, ga_code, report)
        if analyze_code == 2:
            assert ga_code == 2, text

    check()
