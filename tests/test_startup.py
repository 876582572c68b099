"""What a process loads: each command imports only its own modules.

Every ``fullgraph`` command is a short process, so the modules it imports
are a large part of its time.  The checks run in a child interpreter, so
this process's modules never count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import fullgraph

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
{code}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

RUN = """
from fullgraph import cli
for argv, want in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc == want, (argv, rc)
"""


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads to run ``code``."""
    child = CHILD.format(src=str(ROOT / "src"), code=code)
    p = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return set(json.loads(p.stdout.splitlines()[-1]))


def loaded_by_commands(argvs: list[list[str]], rc: int = 0) -> set[str]:
    """The modules a fresh interpreter loads to run ``cli.main`` on each of ``argvs``, each exiting ``rc``."""
    return loaded_by(RUN.format(runs=[(argv, rc) for argv in argvs]))


def submodules(names: set[str]) -> set[str]:
    return {name for name in names if name.startswith("fullgraph.")}


def test_import_loads_no_submodule():
    loaded = loaded_by("import fullgraph")
    assert "fullgraph" in loaded
    assert submodules(loaded) == set()


def test_search_and_verify_load_no_bounds_or_constructions(tmp_path):
    host = tmp_path / "c5.g6"
    host.write_text("Dhc\n")
    search = ["search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path / "cache")]
    # the second search is a cache hit
    loaded = loaded_by_commands([search, search, ["verify", str(host), "--patterns", "P3"]])
    assert submodules(loaded) == {"fullgraph.cli", "fullgraph.graphs", "fullgraph.patterns",
                                  "fullgraph.oracle", "fullgraph.verifier"}


COMMANDS = [
    ["construct", "--theorem", "cyclic", "--patterns", "K2,E2"],
    ["construct", "--theorem", "design", "--patterns", "K2,E2", "--q", "2"],
    ["construct", "--theorem", "h_vs_empty", "--patterns", "P3", "--n", "9"],
    ["construct", "--theorem", "star", "--m", "3", "--n", "5"],
    ["construct", "--theorem", "complete_bipartite", "--m", "4", "--n", "2"],
    ["construct", "--theorem", "delta_zero", "--patterns", "K2+K1", "--n", "3"],
    ["bound", "--egh", "3", "3"],
    ["bound", "--star", "3", "4"],
    ["bound", "--patterns", "K3,C5", "--n", "3"],
    ["design", "--q", "3"],
]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    host = tmp_path / "c5.g6"
    host.write_text("Dhc\n")
    search = ["search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path / "cache")]
    loaded = loaded_by_commands([*COMMANDS, search, search, ["verify", str(host), "--patterns", "P3"]])
    assert submodules(loaded) == {f"fullgraph.{name}" for name in (
        "bounds", "cli", "constructions", "designs", "graphs", "oracle", "patterns", "verifier")}
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    # nor do the error paths
    loaded = loaded_by_commands([["construct", "--theorem", "star", "--m", "3", "--n", "2"],
                                 ["bound", "--patterns", "K0"], ["search", "--patterns", "X"]], rc=2)
    loaded |= loaded_by_commands([["verify", str(host), "--patterns", "K3"]], rc=1)
    assert not loaded & {"dataclasses", "inspect"}


def test_every_public_name_is_its_modules_object():
    for name in fullgraph.__all__:
        value = getattr(fullgraph, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert fullgraph.f_exact is fullgraph.oracle.f_exact
    assert fullgraph.Graph is fullgraph.graphs.Graph
    assert fullgraph.bounds.InternalInvariantError is fullgraph.graphs.InternalInvariantError
    assert set(fullgraph.__all__) <= set(dir(fullgraph))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        fullgraph.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from fullgraph import no_such_name", {})
