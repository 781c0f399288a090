"""Byte-for-byte pin of the command line and demo output.

``tests/golden_outputs.json`` records, for every command on every fan
document below, the exit code, stdout, stderr and the warnings raised
(category and text), and the stdout of every demo.  The file lives
beside ``tests/data`` rather than in it, because the tests read every
``tests/data/*.json`` as a fan document.  A refactor must leave it
unchanged; an intended output change regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import contextlib
import io
import json
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

from torikit.cli import main

TESTS = Path(__file__).parent
ROOT = TESTS.parent
GOLDEN_FILE = TESTS / "golden_outputs.json"

COMMANDS = [
    ["analyze"],
    ["hilbert-basis"],
    ["roots"],
    ["roots", "--ray", "1", "--radius", "2"],
    ["ga-actions"],
    ["ga-actions", "--radius", "1"],
    ["decompose"],
]

EXTRA_DOCUMENTS = [
    '{"rank":2,"rays":[[1,0],[1,2]],"cones":[[0],[1]]}',
    '{"rank":2,"rays":[[1,0],[1,2]],"cones":[[0,1]]}',
    '{"rank":3,"rays":[[1,0,1],[0,1,1],[-1,0,1],[0,-1,1]],"cones":[[0],[1],[2],[3]]}',
    '{"rank":3,"rays":[[1,0,0],[0,1,0]],"cones":[[0],[1]]}',
    '{"rank":2,"rays":[],"cones":[]}',
]


def _capture(run):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run()
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "warnings": [[w.category.__name__, str(w.message)] for w in caught],
    }


def _documents():
    docs = {path.name: path.read_text() for path in sorted((TESTS / "data").glob("*.json"))}
    docs.update((text, text) for text in EXTRA_DOCUMENTS)
    return docs


def _run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def current_outputs(workdir: Path) -> dict:
    """The outputs the golden file pins, as the code gives them now."""
    path = workdir / "fan.json"
    commands = {}
    for label, text in _documents().items():
        path.write_text(text)
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                argv = [command[0], str(path), *command[1:], *flags]
                key = " ".join([command[0], label, *command[1:], *flags])
                commands[key] = _capture(lambda: main(argv))
    demos = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        demos[demo.name] = _capture(lambda: _run_demo(demo))
    return {"commands": commands, "demos": demos}


def test_outputs_equal_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN_FILE.read_text())
    current = current_outputs(tmp_path)
    assert current.keys() == golden.keys()
    for group in golden:
        assert current[group].keys() == golden[group].keys(), group
        for key, expected in golden[group].items():
            assert current[group][key] == expected, key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        outputs = current_outputs(Path(scratch))
    GOLDEN_FILE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}", file=sys.stderr)
