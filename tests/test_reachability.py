"""Every function in ``src/torikit`` is reached by a command or a demo, or is public API.

The runs are the golden invocations and the four demos (``test_golden``),
one argv that only argparse reads, a document that is not a fan (two of its
cones overlap, and the pair loop intersects them) and one that lists a
lower-dimensional cone twice.  A function that none of them calls fails the test unless
``API_ONLY`` names it: such a function is kept for the public API alone
(see the README), and code that nothing reaches any more shows up here.
"""

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import torikit
from torikit import cli

from test_golden import current_outputs

SRC = Path(torikit.__file__).resolve().parent

API_ONLY = {
    "cli.serialize_fan_document",
    "cone.orthogonal_face",
    "fan.Fan.__eq__",
    "fan.Fan.__repr__",
    "fan.Fan.is_smooth",
    "semigroup.AffineSemigroup.__eq__",
    "semigroup.AffineSemigroup.__repr__",
    "semigroup.AlgebraElement.zero",
    "semigroup.AlgebraElement.support",
    "semigroup.AlgebraElement.coefficient",
    "semigroup.AlgebraElement.is_regular",
    "semigroup.AlgebraElement.__bool__",
    "semigroup.AlgebraElement.__eq__",
    "semigroup.AlgebraElement.__sub__",
    "semigroup.AlgebraElement.__neg__",
    "semigroup.AlgebraElement.__pow__",
}

EXTRA_RUNS = [
    ('{"rank":2,"rays":[[1,0],[1,1],[0,1]],"cones":[[0,1],[1,2]]}', ["roots", "--radius=2"], 0),
    ('{"rank":2,"rays":[[1,0],[1,1],[0,1]],"cones":[[0,2],[1]]}', ["analyze"], 2),
    # a cone that lists every ray is the support cone itself, so the cone
    # listed twice is a face of it, built twice and compared with Cone.__eq__
    ('{"rank":3,"rays":[[1,0,0],[0,1,0],[0,0,1]],"cones":[[0,1],[2],[1,0]]}', ["analyze"], 0),
]


def _name(code) -> str:
    module = Path(code.co_filename).stem
    return f"{module}.{code.co_qualname}"


def _defined_functions() -> set[str]:
    """The functions defined by ``def`` in the package, nested ones included."""
    names = set()
    for path in SRC.glob("*.py"):
        stack = [compile(path.read_text(), str(path.resolve()), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            # a def, not a class body, lambda or comprehension
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                names.add(_name(code))
    return names


def _reached(tmp_path) -> set[str]:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    cli._build_parser.cache_clear()  # so that the argparse run builds it again
    sys.setprofile(profile)
    try:
        current_outputs(tmp_path)
        for i, (text, command, code) in enumerate(EXTRA_RUNS):
            path = tmp_path / f"extra{i}.json"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([command[0], str(path), *command[1:]]) == code, text
    finally:
        sys.setprofile(None)
    return {_name(c) for c in codes if Path(c.co_filename).resolve().parent == SRC}


def test_every_function_is_reached_or_public_api(tmp_path):
    defined = _defined_functions()
    reached = _reached(tmp_path)
    assert API_ONLY <= defined
    assert sorted(defined - reached - API_ONLY) == []
    # a function on the list that a run reaches no longer needs to be there
    assert sorted(API_ONLY & reached) == []
