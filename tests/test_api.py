"""The package's public names, and the README's Quick tour and claims about the code."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fullgraph
from fullgraph import cli

ROOT = Path(__file__).resolve().parent.parent

# what a caller calls, constructs or catches
PUBLIC = {
    "Graph", "Graph6Error", "ResolvableDesign", "affine_plane", "cyclic_full", "design_full",
    "egh_formula", "enumerate_graphs", "f_exact", "from_graph6", "h_vs_empty", "is_full",
    "parse_pattern", "parse_pattern_list", "recheck_witness", "star_exact", "star_full",
    "summarize", "to_graph6",
}

# names the root no longer exports -> the module that still defines them
MODULE_ONLY = {
    "ConstructionRecipe": "constructions",
    "FullnessReport": "verifier",
    "SearchResult": "oracle",
    "cyclic_upper": "bounds",
    "delta_zero_exact": "bounds",
    "design_upper": "bounds",
    "general_lower_bound": "bounds",
    "h_vs_empty_upper": "bounds",
    "star_closed_form": "bounds",
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fullgraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(fullgraph.__all__))
    assert len(fullgraph.__all__) == len(namespace)
    for name, value in namespace.items():
        assert value is getattr(fullgraph, name)
        assert getattr(value, "__module__", "").startswith("fullgraph."), name


def test_all_is_the_public_names():
    assert len(fullgraph.__all__) == 19
    assert set(fullgraph.__all__) == PUBLIC


@pytest.mark.parametrize("name,module", sorted(MODULE_ONLY.items()))
def test_module_only_names_stay_in_their_modules(name, module):
    assert hasattr(import_module(f"fullgraph.{module}"), name)
    assert name not in fullgraph.__all__
    with pytest.raises(ImportError):
        exec(f"from fullgraph import {name}", {})


def test_readme_quick_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    env = dict(os.environ, FULLGRAPH_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                       cwd=tmp_path, timeout=300)
    assert p.returncode == 0, p.stderr
    # the values the tour's comments state
    assert p.stdout.splitlines()[:3] == ["8", "True", "8"]


def test_readme_states_the_theorems_and_the_root_size():
    readme = (ROOT / "README.md").read_text()
    # the first sentence of the --theorem paragraph names each theorem in backticks
    start = readme.index("`--theorem` selects the construction:")
    sentence = re.split(r"\.\s", readme[start:], maxsplit=1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(cli._THEOREMS)
    assert re.findall(r"The package root exports (\d+) names", readme) == [str(len(fullgraph.__all__))]
