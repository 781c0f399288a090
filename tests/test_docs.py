"""The README's library example and its demos run as written.

The example's expression lines carry their values as comments; each is
evaluated and its repr compared with the comment (up to a ``--`` remark).
The demos the README lists are exactly the scripts in ``demos/``, and
each runs to the end as listed; ``tests/test_golden.py`` pins their output.
The paragraph on the public API names every function that the reachability
gate lets go unreached, and the counts of mutant records and of drop-in
oracles are those of ``tests/mutants.py`` and ``tests/test_drop_in_oracles.py``.
"""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

import mutants
from test_drop_in_oracles import DROP_IN
from test_reachability import API_ONLY

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
LISTED_DEMOS = re.findall(r"^python (demos/\w+\.py)$", README, re.M)


def test_readme_library_example_gives_the_values_in_its_comments():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if comment and "=" not in code:
            expected = comment.split(" -- ")[0].strip()
            assert repr(eval(code, namespace)) == expected, line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 5


def test_readme_lists_every_demo():
    assert sorted(LISTED_DEMOS) == sorted(
        str(path.relative_to(ROOT)) for path in (ROOT / "demos").glob("*.py")
    )


@pytest.mark.parametrize("demo", LISTED_DEMOS)
def test_listed_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / demo), run_name="__main__")
    assert out.getvalue()


def test_readme_names_every_function_kept_for_the_public_api_only():
    paragraph = re.search(r"^[^\n]*kept for the public API only.*?\n\n", README, re.M | re.S)
    named = set(re.findall(r"`([\w.]+)`", paragraph.group(0)))
    assert {name.partition(".")[2] for name in API_ONLY} <= named


def test_readme_counts_the_mutant_records_and_the_drop_in_oracles():
    # importing mutants defines its records and runs none of them
    assert int(re.search(r"The (\d+) records", README).group(1)) == len(mutants.RECORDS)
    assert int(re.search(r"(\d+) functions, among them", README).group(1)) == len(DROP_IN)
