"""Command-line interface: JSON output, exit codes, file handling."""

import hashlib
import io
import json
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgraph import bounds, cli, oracle, patterns, verifier
from fullgraph.cli import main
from fullgraph.constructions import h_vs_empty
from fullgraph.graphs import Graph, complete, cycle, disjoint_union, empty, from_graph6, star, to_graph6
from fullgraph.verifier import is_full
from fullgraph.patterns import parse_pattern, parse_pattern_list, pattern_name


def run(*args, stdin=None, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "fullgraph", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=full_env,
        timeout=300,
    )


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@st.composite
def payloads(draw):
    """JSON-ready dicts, with one list object that appears at two depths."""
    shared = draw(st.lists(SCALARS, max_size=6))
    value = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                         | st.dictionaries(st.text(), inner, max_size=4), max_leaves=30)
    payload = draw(st.dictionaries(st.text(), value, max_size=5))
    payload["shared"] = shared
    payload["nested"] = {"again": [shared, {"deeper": shared}], "empty": [{}, []]}
    return payload


def json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestEmit:
    """``_emit`` prints what ``json.dumps(payload, sort_keys=True, indent=2)`` does."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(payloads())
    def test_matches_json(self, payload):
        out = io.StringIO()
        saved, sys.stdout = sys.stdout, out
        try:
            cli._emit(payload)
        finally:
            sys.stdout = saved
        assert out.getvalue() == json_text(payload)

    def test_tuples_and_specials(self, capsys):
        payload = {"t": (1, "é", None), "f": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
                   "b": [True, False, 0, 1], "s": "\u2603\n\"", "": {}}
        cli._emit(payload)
        assert capsys.readouterr().out == json_text(payload)

    @pytest.mark.parametrize("argv", [
        ["construct", "--theorem", "h_vs_empty", "--patterns", "C5", "--n", "12"],
        ["construct", "--theorem", "design", "--patterns", "K3,E3", "--q", "3"],
        ["construct", "--theorem", "star", "--m", "3", "--n", "4"],
        ["construct", "--theorem", "cyclic", "--patterns", "K3,E3"],
        ["verify", "HOST", "--patterns", "P3,E3,C4"],
        ["bound", "--patterns", "K3", "--n", "3"],
        ["bound", "--patterns", "S3", "--n", "4"],
        ["bound", "--patterns", "C5,E3"],
        ["search", "--patterns", "K2,E2", "--cache-dir", "CACHE"],
        ["design", "--q", "3"],
    ])
    def test_every_subcommand(self, argv, tmp_path, monkeypatch, capsys):
        host = tmp_path / "host.g6"
        host.write_text(to_graph6(cycle(8)) + "\n")
        argv = [str(host) if a == "HOST" else str(tmp_path) if a == "CACHE" else a for a in argv]
        emitted = []
        real = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda payload: (emitted.append(payload), real(payload)))
        main(argv)
        assert len(emitted) == 1
        assert capsys.readouterr().out == json_text(emitted[0])

    @pytest.mark.parametrize("payload", [{1: "a"}, {"a": [{"b": 1, 2: "c"}]}, {"a": {None: 1}}])
    def test_non_str_keys_raise(self, payload):
        with pytest.raises(TypeError):
            cli._emit(payload)


class TestConstruct:
    def test_cyclic_json_shape(self):
        p = run("construct", "--theorem", "cyclic", "--patterns", "K3,E3")
        assert p.returncode == 0, p.stderr
        out = json.loads(p.stdout)
        assert out["order"] == 8
        assert out["verified"] is True
        assert out["recipe"]["theorem_tag"] == "cyclic"
        g = from_graph6(out["graph6"])
        assert is_full(g, parse_pattern_list("K3,E3")).verdict

    def test_star_pinned(self):
        p = run("construct", "--theorem", "star", "--m", "3", "--n", "5")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["order"] == 9
        assert out["recipe"]["parameters"]["k"] == 2
        assert out["recipe"]["parameters"]["r"] == 3

    def test_design_with_plane(self):
        p = run("construct", "--theorem", "design", "--patterns", "K3,P3,E3", "--q", "3")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["order"] == 9

    def test_h_vs_empty(self):
        p = run("construct", "--theorem", "h_vs_empty", "--patterns", "P3", "--n", "9")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["order"] == 15

    def test_complete_bipartite(self):
        # star builds K_{n,m-1} when n < m
        p = run("construct", "--theorem", "star", "--m", "4", "--n", "2")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["order"] == 5
        assert (out["recipe"]["theorem_tag"], out["verified"]) == ("complete_bipartite", True)

    def test_delta_zero(self):
        # h_vs_empty adds isolated vertices to a pattern with one
        p = run("construct", "--theorem", "h_vs_empty", "--patterns", "K2+K1", "--n", "3")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["order"] == 4
        assert (out["recipe"]["theorem_tag"], out["verified"]) == ("delta_zero", True)

    def test_cyclic_builds_the_bound_with_single_vertex_patterns(self, capsys):
        # bound reports cyclic_upper = 8 for K1,C5; the ring carries C5 alone
        assert main(["construct", "--theorem", "cyclic", "--patterns", "K1,C5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["order"], out["verified"]) == (8, True)
        assert main(["construct", "--theorem", "cyclic", "--patterns", "K1,E1"]) == 2
        assert capsys.readouterr() == (
            "", "error: every pattern has order 1; the ring needs a pattern of order >= 2\n")

    def test_out_files(self, tmp_path):
        g6 = tmp_path / "g.g6"
        p = run("construct", "--theorem", "cyclic", "--patterns", "K2,E2", "--out", str(g6))
        assert p.returncode == 0
        host = from_graph6(g6.read_text().strip())
        assert host.order == 4
        assert g6.read_text() == json.loads(p.stdout)["graph6"] + "\n"

    def test_recipe_out_is_a_usage_error(self, tmp_path, capsys):
        rec = tmp_path / "r.json"
        argv = ["construct", "--theorem", "star", "--m", "4", "--n", "9", "--recipe-out", str(rec)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --recipe-out" in captured.err
        assert not rec.exists()

    def test_precondition_error_exits_two(self):
        p = run("construct", "--theorem", "star", "--m", "3", "--n", "0")
        assert p.returncode == 2
        assert "error" in p.stderr.lower()

    def test_star_against_one_vertex_is_the_star(self, capsys):
        # f(S_m, E1) = m: the star itself is full
        assert main(["construct", "--theorem", "star", "--m", "3", "--n", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["order"], out["verified"]) == (3, True)
        assert from_graph6(out["graph6"]) == star(3)

    @pytest.mark.parametrize("pattern,order", [("C5", 5), ("K3", 3)])
    def test_pattern_against_one_vertex_is_the_pattern(self, pattern, order, capsys):
        # bound's single_pattern_exact: f(H, E1) = order(H), met by H itself
        assert main(["bound", "--patterns", pattern, "--n", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_lower"] == summary["best_upper"] == order
        assert main(["construct", "--theorem", "h_vs_empty", "--patterns", pattern, "--n", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["order"], out["verified"], out["recipe"]["theorem_tag"]) == (order, True, "single_pattern")
        assert from_graph6(out["graph6"]) == parse_pattern(pattern)

    @pytest.mark.parametrize("argv,message", [
        (["--theorem", "star", "--m", "3", "--n", "2", "--k", "1"], "k applies only when n >= m"),
        (["--theorem", "h_vs_empty", "--patterns", "K2+K1", "--n", "9", "--r", "4"],
         "r applies only to a pattern of min degree >= 1"),
    ])
    def test_override_outside_its_regime_exits_two(self, argv, message, capsys):
        # an override the regime cannot use is an error, not ignored
        assert main(["construct", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # the parent's complete_bipartite and delta_zero runs of these instances
    # printed this stdout and these exit codes; star and h_vs_empty print them now
    MERGED_DIGEST = "c76c17b9c1f705d9789e621edb7d4d54701f00e5"

    def test_merged_regimes_print_the_old_hosts(self, capsys):
        runs = []
        for m in range(3, 9):
            for n in range(2, m):
                runs.append([main(["construct", "--theorem", "star", "--m", str(m), "--n", str(n)]),
                             capsys.readouterr().out])
        for h in ("K2+K1", "P3+K1", "K3+E2", "C5+K1", "E3", "K1", "S4+E1", "C4+K2+K1"):
            for n in range(1, 9):
                runs.append([main(["construct", "--theorem", "h_vs_empty", "--patterns", h, "--n", str(n)]),
                             capsys.readouterr().out])
        assert len(runs) == 85 and sum(rc == 0 for rc, _ in runs) == 73
        assert all(out == "" for rc, out in runs if rc != 0)
        assert hashlib.sha1(json.dumps(runs).encode()).hexdigest() == self.MERGED_DIGEST

    def test_two_patterns_against_e_n_exit_two(self, capsys):
        argv = ["construct", "--theorem", "h_vs_empty", "--patterns", "K3,E3", "--n", "4"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --theorem h_vs_empty takes exactly one pattern\n")

    def test_explicit_verify_is_the_default(self, capsys):
        argv = ["construct", "--theorem", "cyclic", "--patterns", "K3,E3"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert json.loads(default)["verified"] is True
        assert main([*argv, "--verify"]) == 0
        assert capsys.readouterr().out == default

    def test_no_verify_skips_check(self):
        p = run("construct", "--theorem", "cyclic", "--patterns", "K2", "--no-verify")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["verified"] is None

    def test_missing_required_params_exit_two(self, capsys):
        # each theorem's required flags, with values that build
        required = {
            "cyclic": {"--patterns": "K3,E3"},
            "design": {"--patterns": "K3,E3", "--q": "3"},
            "h_vs_empty": {"--patterns": "P3", "--n": "9"},
            "star": {"--m": "3", "--n": "5"},
        }
        for theorem, given in required.items():
            for missing in [*([flag] for flag in given), list(given)]:
                argv = ["construct", "--theorem", theorem]
                for flag, value in given.items():
                    if flag not in missing:
                        argv += [flag, value]
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                for flag in missing:
                    assert re.search(rf"{flag}\b", captured.err), (argv, captured.err)
            argv = ["construct", "--theorem", theorem, *(a for item in given.items() for a in item)]
            assert main(argv) == 0, argv
            capsys.readouterr()

    def test_flags_a_theorem_does_not_take_exit_two(self, capsys):
        # each theorem's required and optional flags, with values that build
        taken = {
            "cyclic": ["--patterns", "K3,E3"],
            "design": ["--patterns", "K3,E3", "--q", "3"],
            "h_vs_empty": ["--patterns", "P3", "--n", "9", "--r", "4"],
            "star": ["--m", "3", "--n", "5", "--k", "2"],
        }
        values = {"--patterns": "K2,E2", "--m": "3", "--n": "3", "--k": "2", "--r": "2", "--q": "3"}
        for theorem, argv in taken.items():
            assert main(["construct", "--theorem", theorem, *argv]) == 0, theorem
            capsys.readouterr()
            for flag, value in values.items():
                if flag not in argv:
                    assert main(["construct", "--theorem", theorem, *argv, flag, value]) == 2
                    assert capsys.readouterr() == ("", f"error: --theorem {theorem} does not take {flag}\n")

    # the five construct runs of the verify_large benchmark, the K_{n,m-1}
    # and isolated-vertex regimes, and one --k and one --r override
    PINNED = [
        ["--theorem", "h_vs_empty", "--patterns", "C5", "--n", "400"],
        ["--theorem", "h_vs_empty", "--patterns", "K4", "--n", "160"],
        ["--theorem", "design", "--patterns", "P9,C9,K9,E9", "--q", "9"],
        ["--theorem", "star", "--m", "10", "--n", "1000"],
        ["--theorem", "cyclic", "--patterns", "K6,E6,P6,C6"],
        ["--theorem", "star", "--m", "5", "--n", "3"],
        ["--theorem", "h_vs_empty", "--patterns", "P3+K1", "--n", "5"],
        ["--theorem", "star", "--m", "4", "--n", "9", "--k", "2"],
        ["--theorem", "h_vs_empty", "--patterns", "P3", "--n", "9", "--r", "4"],
    ]

    def test_stdout_is_pinned(self, capsys):
        runs = []
        for argv in self.PINNED:
            rc = main(["construct", *argv])
            runs.append([argv, rc, capsys.readouterr().out])
        assert [rc for _, rc, _ in runs] == [0] * len(self.PINNED)
        assert hashlib.sha1(json.dumps(runs).encode()).hexdigest() == "bba28f11c6d5dec8afb0bea6a89decc8a76fb061"


class TestPatternLanguage:
    # each letter's least accepted order; one less is rejected with the message
    @pytest.mark.parametrize("letter, least", [("K", 1), ("E", 1), ("S", 2), ("P", 1), ("C", 3)])
    def test_least_order_of_each_letter(self, letter, least):
        assert parse_pattern(f"{letter}{least}").order == least
        with pytest.raises(ValueError) as exc:
            parse_pattern(f"{letter}{least - 1}")
        assert str(exc.value) == f"{letter}<n> needs n >= {least}"

    @pytest.mark.parametrize("parse, text, message", [
        (parse_pattern, "X3", "cannot parse pattern term 'X3': expected K<n>, E<n>, S<n>, P<n>, "
                              "C<n>, or g6:<graph6>"),
        (parse_pattern, "K3+", "cannot parse pattern 'K3+'"),
        (parse_pattern_list, "K3,,E3", "cannot parse pattern list 'K3,,E3'"),
    ])
    def test_malformed_text(self, parse, text, message):
        with pytest.raises(ValueError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, orders", [("C5", [5]), ("K2+E1", [2, 1, 3])])
    def test_one_term_is_built_once(self, monkeypatch, text, orders):
        # a union validates its terms and then itself; a single term is returned as built
        built = []
        check = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda g: (built.append(g.order), check(g)))
        parse_pattern(text)
        assert built == orders

    @pytest.mark.parametrize("g, name", [
        (empty(1), "E1"), (empty(4), "E4"), (complete(2), "K2"), (complete(5), "K5"),
        (cycle(5), "g6:Dhc"), (star(3), "g6:Bo"), (disjoint_union(complete(2), empty(1)), "g6:B_"),
    ])
    def test_pattern_name_reads_back(self, g, name):
        assert pattern_name(g) == name
        assert parse_pattern(name) == g


class TestVerify:
    def test_verdict_true_exits_zero(self, tmp_path):
        f = tmp_path / "m.g6"
        f.write_text("CQ\n")  # perfect matching on four vertices
        p = run("verify", str(f), "--patterns", "K2,E2")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["verdict"] is True
        assert all(entry["uncovered"] == [] for entry in out["patterns"])

    def test_verdict_false_exits_one(self, tmp_path):
        f = tmp_path / "k4.g6"
        f.write_text("C~\n")
        p = run("verify", str(f), "--patterns", "E2")
        assert p.returncode == 1
        out = json.loads(p.stdout)
        assert out["verdict"] is False
        assert out["patterns"][0]["uncovered"] == [0, 1, 2, 3]

    def test_stdin_host(self):
        p = run("verify", "-", "--patterns", "K2", stdin="A_\n")
        assert p.returncode == 0

    def test_more_than_one_graph_exits_two(self, tmp_path, capsys):
        f = tmp_path / "h.g6"
        f.write_text("Dhc\nDhc\n")
        assert main(["verify", str(f), "--patterns", "C5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected one graph6 string, found 2" in captured.err
        p = run("verify", "-", "--patterns", "K2", stdin="A_\n\nA_ A_\n")
        assert p.returncode == 2
        assert "found 3" in p.stderr

    @pytest.mark.parametrize("text", ["Dhc", "Dhc\r\n", "\n\nDhc\n\n", "\r\n  Dhc\t\r\n\r\n"])
    def test_one_graph_among_blank_lines_is_read(self, tmp_path, capsys, text):
        f = tmp_path / "h.g6"
        f.write_bytes(text.encode())
        assert main(["verify", str(f), "--patterns", "C5"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True

    @pytest.mark.parametrize("text", ["", "\n", " \r\n\r\n"])
    def test_no_graph_exits_two(self, tmp_path, capsys, text):
        f = tmp_path / "h.g6"
        f.write_bytes(text.encode())
        assert main(["verify", str(f), "--patterns", "C5"]) == 2
        assert "no graph6 data found" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        p = run("verify", "/nonexistent/host.g6", "--patterns", "K2")
        assert p.returncode == 2

    def test_malformed_graph6_exits_two(self, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text("A_?trailing\n")
        p = run("verify", str(f), "--patterns", "K2")
        assert p.returncode == 2

    def test_bad_pattern_exits_two(self, tmp_path):
        f = tmp_path / "m.g6"
        f.write_text("A_\n")
        p = run("verify", str(f), "--patterns", "X9")
        assert p.returncode == 2

    def test_order_zero_pattern_exits_two(self, tmp_path, capsys):
        f = tmp_path / "m.g6"
        f.write_text("A_\n")
        assert main(["verify", str(f), "--patterns", "g6:?"]) == 2
        assert "no vertices" in capsys.readouterr().err

    def test_stdout_is_the_indented_report(self, tmp_path):
        host = cycle(8)
        f = tmp_path / "c8.g6"
        f.write_text(to_graph6(host) + "\n")
        p = run("verify", str(f), "--patterns", "P3,E3")
        report = is_full(host, parse_pattern_list("P3,E3"))
        assert p.stdout == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"

    def test_large_report_is_pinned(self, tmp_path, capsys):
        # 16.7 MB of JSON: pins both the printer and the edgeless witnesses chosen
        host, _ = h_vs_empty(cycle(5), 1000)
        f = tmp_path / "h1091.g6"
        f.write_text(to_graph6(host) + "\n")
        assert main(["verify", str(f), "--patterns", "C5,E1000"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha1(out.encode()).hexdigest() == "2af4831eb857a81dfda3730308e97dfa251ef741"

    def test_a_crash_exits_three_not_one(self, tmp_path, monkeypatch, capsys):
        f = tmp_path / "m.g6"
        f.write_text("A_\n")

        def crash(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(verifier, "is_full", crash)
        assert main(["verify", str(f), "--patterns", "K2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("TypeError: unsupported operand\n")


class TestBound:
    def test_egh(self):
        # f(K3, E3) = 8 by the complete-vs-edgeless formula
        p = run("bound", "--patterns", "K3", "--n", "3")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert next(e["value"] for e in out["entries"] if e["name"] == "complete_vs_empty_exact") == 8
        assert out["best_lower"] == out["best_upper"] == 8

    def test_star(self):
        p = run("bound", "--patterns", "S3", "--n", "5")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert next(e["value"] for e in out["entries"] if e["name"] == "star_exact") == 9
        assert out["best_lower"] == out["best_upper"] == 9

    def test_star_against_one_vertex(self, capsys):
        assert main(["bound", "--patterns", "S4", "--n", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert next(e["value"] for e in out["entries"] if e["name"] == "star_exact") == 4
        assert out["best_lower"] == out["best_upper"] == 4
        # the complete-vs-edgeless formula asks for n >= 2, and K3 alone is full for [K3, E1]
        assert main(["bound", "--patterns", "K3", "--n", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        exact = {e["name"]: e["value"] for e in out["entries"] if e["kind"] == "exact"}
        assert exact == {"single_pattern_exact": 3}
        assert out["best_lower"] == out["best_upper"] == 3

    def test_summary_table(self):
        p = run("bound", "--patterns", "K2", "--n", "5")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        entries = {e["name"]: e for e in out["entries"]}
        assert entries["complete_vs_empty_exact"]["value"] == 9
        assert out["best_lower"] == 9
        assert out["best_upper"] == 9

    @pytest.mark.parametrize("formula", [["--egh", "3", "3"], ["--star", "3", "5"]])
    def test_n_needs_patterns(self, formula, capsys):
        assert main(["bound", *formula, "--n", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: fullgraph bound")
        assert err.endswith("error: the following arguments are required: --patterns\n")

    # --patterns is the one way to ask; --egh and --star are gone
    @pytest.mark.parametrize("ways", [[], ["--egh", "3", "3", "--star", "3", "5"],
                                      ["--star", "3", "5", "--patterns", "K3"],
                                      ["--egh", "3", "3", "--patterns", "K3"]])
    def test_exactly_one_way_exits_two_otherwise(self, ways, capsys):
        assert main(["bound", *ways]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: fullgraph ")
        if "--patterns" in ways:
            assert err.endswith(f"error: unrecognized arguments: {' '.join(ways[:3])}\n")
        else:
            assert err.endswith("error: the following arguments are required: --patterns\n")

    def test_complete_pattern_of_order_one(self, capsys):
        # K1 takes no complete-vs-edgeless formula (it needs m >= 2); E5 alone is full for [K1, E5]
        assert main(["bound", "--patterns", "K1", "--n", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "complete_vs_empty_exact" not in {e["name"] for e in out["entries"]}
        assert out["best_lower"] == out["best_upper"] == 5

    def test_single_vertex_pattern(self, capsys):
        assert main(["bound", "--patterns", "K1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [out["best_lower"], out["best_upper"]] == [1, 1]

    def test_output_grows_with_the_question_not_with_n(self):
        # E100000 is printed by its name, not by its 833 MB of graph6
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        p = run("bound", "--patterns", "C5", "--n", "100000")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout)["instance"]["patterns"] == ["g6:Dhc", "E100000"]
        assert len(p.stdout.encode()) < 4096
        assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 2.0

    def test_order_zero_pattern_exits_two(self, capsys):
        assert main(["bound", "--patterns", "g6:?"]) == 2
        assert "no vertices" in capsys.readouterr().err

    def test_edgeless_order_zero_exits_two(self, capsys):
        assert main(["bound", "--patterns", "K3", "--n", "0"]) == 2
        assert "n must be at least 1" in capsys.readouterr().err

    def test_huge_n_exits_two(self, capsys):
        assert main(["bound", "--patterns", "K3", "--n", "100000000000000000000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_inconsistent_summary_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(bounds.BoundSummary, "violations", lambda self: ["lower 9 exceeds upper 8"])
        assert main(["bound", "--patterns", "K2", "--n", "5"]) == 3
        assert "internal invariant breach" in capsys.readouterr().err


class TestSearch:
    def test_small_instance(self, tmp_path):
        p = run("search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path))
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["f"] == 4
        assert out["witness"] == "CQ"
        assert "wall_time" not in out

    def test_reruns_are_byte_identical(self, tmp_path):
        p1 = run("search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path))
        p2 = run("search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path))
        assert p1.stdout == p2.stdout

    def test_a_record_with_a_wall_time_prints_as_a_fresh_search(self, tmp_path, capsys):
        # records were once written with the search's wall time, which no answer reads
        old = tmp_path / "old"
        old.mkdir()
        line = ('{"key": "{\\"hi\\": 9, \\"lo\\": 5, \\"patterns\\": [\\"B?\\", \\"DLo\\"], '
                '\\"version\\": 3}", "result": {"examined": {"5": 34, "6": 156, "7": 385}, '
                '"exhausted_orders": [5, 6], "exhaustive": true, "f": 7, "note": "", '
                '"patterns": ["B?", "DLo"], "wall_time": 0.125, "witness": "FCR`o"}}\n')
        (old / "f_exact.jsonl").write_text(line)
        assert main(["search", "--patterns", "C5,E3", "--cache-dir", str(old)]) == 0
        hit = capsys.readouterr().out
        assert (old / "f_exact.jsonl").read_text() == line
        assert main(["search", "--patterns", "C5,E3", "--cache-dir", str(tmp_path / "cold")]) == 0
        assert capsys.readouterr().out == hit
        assert json.loads(hit)["f"] == 7

    def test_malformed_cache_records_are_skipped(self, tmp_path):
        first = run("search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path))
        cache_file = tmp_path / "f_exact.jsonl"
        key = json.loads(cache_file.read_text())["key"]
        with cache_file.open("a") as fh:
            fh.write("[]\n\"text\"\n" + json.dumps({"key": key, "result": {}}) + "\n")
        again = run("search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path))
        assert again.returncode == 0, again.stderr
        assert again.stdout == first.stdout

    def test_records_another_process_appends_are_seen(self, tmp_path):
        cache_file = tmp_path / "f_exact.jsonl"
        mine = oracle.f_exact(parse_pattern_list("K2,E2"), cache_dir=tmp_path)
        key = json.loads(cache_file.read_text())["key"]
        assert oracle._cache_lookup(tmp_path, key) == mine
        lines = cache_file.read_bytes().count(b"\n")
        p = run("search", "--patterns", "K2,E3", "--cache-dir", str(tmp_path))
        assert p.returncode == 0, p.stderr
        data = cache_file.read_bytes()
        assert data.count(b"\n") == lines + 1
        record = json.loads(data.splitlines()[-1])
        theirs = oracle._cache_lookup(tmp_path, record["key"])
        assert theirs is not None and theirs.to_dict() == record["result"]
        assert oracle._cache_lookup(tmp_path, key) == mine

    def test_env_cache_dir(self, tmp_path):
        p = run("search", "--patterns", "K2,E2", env={"FULLGRAPH_CACHE": str(tmp_path)})
        assert p.returncode == 0
        assert (tmp_path / "f_exact.jsonl").exists()

    def test_empty_cache_dir_counts_as_unset(self, tmp_path, monkeypatch, capsys):
        work, cache = tmp_path / "work", tmp_path / "cache"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("FULLGRAPH_CACHE", str(cache))
        assert main(["search", "--patterns", "K2,E2", "--cache-dir", ""]) == 0
        assert json.loads(capsys.readouterr().out)["f"] == 4
        assert (cache / "f_exact.jsonl").read_text().count("\n") == 1
        assert list(work.iterdir()) == []

    def test_max_order_cap(self, tmp_path):
        p = run("search", "--patterns", "K4,E4", "--max-order", "6",
                "--cache-dir", str(tmp_path))
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["f"] is None
        assert out["exhaustive"] is True

    def test_lower_flag(self, tmp_path):
        p = run("search", "--patterns", "K2,E2", "--lower", "4",
                "--cache-dir", str(tmp_path))
        assert p.returncode == 0
        assert json.loads(p.stdout)["f"] == 4

    def test_unmakeable_cache_dir_fails_before_the_scan(self, tmp_path, monkeypatch, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")

        def scan(order):
            raise AssertionError(f"order {order} was scanned")

        monkeypatch.setattr(oracle, "enumerate_graphs", scan)
        assert main(["search", "--patterns", "K3,E3", "--cache-dir", str(not_a_dir)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{not_a_dir}'\n")

    def test_unwritable_cache_file_fails_before_the_scan(self, tmp_path, monkeypatch, capsys):
        assert main(["search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path)]) == 0
        hit = capsys.readouterr().out
        real_open = oracle.os.open

        def refuse_writes(path, flags, *args, **kwargs):
            if flags & (oracle.os.O_WRONLY | oracle.os.O_RDWR):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, flags, *args, **kwargs)

        def scan(order):
            raise AssertionError(f"order {order} was scanned")

        # file modes do not bind a superuser, so the refusal is simulated
        monkeypatch.setattr(oracle.os, "open", refuse_writes)
        monkeypatch.setattr(oracle, "enumerate_graphs", scan)
        assert main(["search", "--patterns", "K3,E3", "--cache-dir", str(tmp_path)]) == 2
        cache_file = tmp_path / "f_exact.jsonl"
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: '{cache_file}'\n")
        # a cached answer needs no write
        assert main(["search", "--patterns", "K2,E2", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == hit

    def test_pattern_above_the_cap_names_the_start(self, tmp_path):
        # no hint was given: the scan would start at the largest pattern order
        p = run("search", "--patterns", "K10", "--cache-dir", str(tmp_path))
        assert p.returncode == 2
        assert p.stderr == "error: search would start at 10, the largest pattern order, but stop at 9\n"


class TestDesignCommand:
    def test_emits_valid_design(self, tmp_path):
        p = run("design", "--q", "3")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["points"] == 9
        assert len(out["classes"]) == 4

    def test_out_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "plane.json"
        assert main(["design", "--q", "2", "--out", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --out" in captured.err
        assert not f.exists()

    def test_unsupported_order_exits_two(self):
        p = run("design", "--q", "6")
        assert p.returncode == 2


class TestUsage:
    def test_no_command_exits_two(self):
        p = run()
        assert p.returncode == 2

    @pytest.mark.parametrize("argv", [["search", "--patterns", "E99999999999"],
                                      ["bound", "--patterns", "E99999999999", "--n", "3"],
                                      ["verify", "--patterns", "E99999999999", "HOST"]])
    def test_a_size_too_large_to_hold_exits_two(self, argv, tmp_path, monkeypatch, capsys):
        # the builder raises as a real allocation of E99999999999 would, so nothing large is made
        def too_large(n):
            raise MemoryError

        monkeypatch.setitem(patterns._FAMILIES, "E", (1, too_large))
        host = tmp_path / "c5.g6"
        host.write_text("Dhc\n")
        argv = [str(host) if arg == "HOST" else arg for arg in argv]
        if argv[0] == "search":
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    def test_unknown_command_exits_two(self):
        p = run("frobnicate")
        assert p.returncode == 2

    def test_help_exits_zero(self):
        p = run("--help")
        assert p.returncode == 0
        assert "construct" in p.stdout

    def test_readme_command_lines_parse(self):
        # every "$ fullgraph ..." line in a README code block, less its comment
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines() if line.startswith("$ fullgraph ")]
        assert len(lines) >= 5
        parser = cli._build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line[len("$ fullgraph "):], comments=True))
            except SystemExit:
                pytest.fail(f"README command line does not parse: {line}")
