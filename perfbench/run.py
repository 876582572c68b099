"""Layered benchmark for fullgraph: cold search, large-host verification, warm cache.

Usage, from the root of a checkout that holds ``src/fullgraph``:

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 10 --trace 0

Every operation runs in a child interpreter, one at a time (a closed loop
with one client).  Each child's wall time is also put on one scale by the
host's speed, sampled in the child (``speed.py``).  With ``--trace 0`` the
run sets up the workload several times, repeats whole rounds of it until
``--seconds`` have passed, and reports the median set-up and the median
round on that scale.
With ``--trace 1`` it runs one untraced round and then the same round with
every layer wrapped by ``tracer.py``, and reports the per-layer metrics and
the tracing overhead.  Either way the outputs are checked by ``checker.py``,
which shares no code with fullgraph.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

PROCESS_TIMEOUT_S = 150
STARTUP_SAMPLES = 5


# -- child processes ----------------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    started: float
    # wall time at the nominal host speed; the wall time itself until the
    # child's speed samples are read
    norm_s: float


class Runner:
    """Starts one child at a time and records its wall time and peak RSS."""

    def __init__(self, root: Path, work: Path):
        self.src = root / "src"
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.src)
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("FULLGRAPH_CACHE", None)
        self.count = 0
        self.procs: list[Proc] = []

    def run(self, argv: list[str]) -> Proc:
        self.count += 1
        out_path = self.work / f"proc{self.count}.out"
        err_path = self.work / f"proc{self.count}.err"
        hwm_path = self.work / f"proc{self.count}.hwm"
        env = dict(self.env, PERFBENCH_HWM=str(hwm_path))
        with open(out_path, "w") as out, open(err_path, "w") as err:
            started = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.work)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, _ = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = int(hwm_path.read_text()) / 1024.0 if hwm_path.exists() else 0.0
        done = Proc(proc.returncode, ended - started, rss_mb, out_path.read_text(), started,
                    ended - started)
        self.procs.append(done)
        return done

    def worker(self, ops: list[dict], trace: bool) -> tuple[Proc, dict | None]:
        """Run operations in one interpreter through ``worker.py``.

        Each ``cli`` operation's stdout goes to a file of its own and is
        read back into the result as ``stdout``.
        """
        n = self.count + 1
        job = self.work / f"job{n}.json"
        result = self.work / f"result{n}.json"
        outs = [self.work / f"job{n}.op{i}.out" for i in range(len(ops))]
        ops = [dict(op, stdout=str(out)) if op["kind"] == "cli" else op
               for op, out in zip(ops, outs)]
        job.write_text(json.dumps({"src": str(self.src), "trace": trace, "ops": ops}))
        proc = self.run([sys.executable, str(BENCH / "worker.py"), str(job), str(result)])
        data = json.loads(result.read_text()) if proc.rc == 0 and result.exists() else None
        if data is not None:
            proc.norm_s = speed.normalise(proc.wall_s, data["speed"])
            for op, done in zip(ops, data["ops"]):
                if op["kind"] == "cli":
                    done["stdout"] = Path(op["stdout"]).read_text()
        return proc, data

    def cli(self, argv: list[str], trace: bool = False) -> tuple[Proc, dict | None]:
        """One command-line call in its own interpreter; the returned process
        carries the call's exit code and stdout."""
        proc, data = self.worker([{"kind": "cli", "argv": argv}], trace)
        if data is not None:
            proc.rc = data["ops"][0]["rc"]
            proc.stdout = data["ops"][0]["stdout"]
        return proc, data

    def import_probe(self) -> Proc:
        """A child that imports fullgraph and does nothing else."""
        return self.worker([], trace=False)[0]

    def startup_probe(self) -> Proc:
        return self.run([sys.executable, "-c", "import fullgraph"])


# -- rounds -------------------------------------------------------------------


@dataclass
class Round:
    """One whole round of a workload's operations."""

    procs: list[Proc] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traces: list[dict] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def norm_s(self) -> float:
        return sum(p.norm_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    def add_trace(self, data: dict | None) -> None:
        if data is not None and "trace" in data:
            self.traces.append(data["trace"])


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# -- search_cold --------------------------------------------------------------

SEARCH_FIRST = "K3,E3"
SEARCH_REST = ["S4,E5", "C4,E4", "P4,E4", "C5,E3", "K2+E1,E3"]


class SearchCold:
    """One fresh interpreter, empty cache, six searches through ``cli.main``.

    The first answer pays for enumeration and canonical labeling through
    order 8; the rest reuse the in-process memo and are dominated by host
    checking (``S4,E5`` checks all 12346 order-8 classes and streams part of
    order 9).  The seed orders the five later instances; the total work does
    not depend on that order.
    """

    setup_repeats = 9

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        rest = list(SEARCH_REST)
        random.Random(seed).shuffle(rest)
        self.instances = [SEARCH_FIRST, *rest]
        self.cache = runner.work / "search_cache"
        self.answers: dict[str, str] = {}

    def setup(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir()
        self.runner.import_probe()

    def round(self, trace: bool) -> Round:
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir()
        ops = [{"kind": "cli", "argv": ["search", "--patterns", p, "--cache-dir", str(self.cache)]}
               for p in self.instances]
        proc, data = self.runner.worker(ops, trace)
        r = Round(procs=[proc], attempted=len(ops))
        done = data["ops"] if data else []
        r.failed = len(ops) - sum(1 for op in done if op["rc"] == 0)
        r.extra["first_answer_s"] = ((done[0]["t"] - done[0]["spent"] - proc.started)
                                     * speed.scale(data["speed"]) if done else proc.norm_s)
        r.outputs = [(p, op["stdout"]) for p, op in zip(self.instances, done) if op["rc"] == 0]
        cache_file = self.cache / "f_exact.jsonl"
        r.extra["cache_records"] = (len(cache_file.read_text().splitlines())
                                    if cache_file.exists() else 0)
        r.add_trace(data)
        return r

    def check(self, r: Round) -> list[str]:
        problems = []
        if r.extra["cache_records"] != len(r.outputs):
            problems.append(f"{r.extra['cache_records']} cache records for "
                            f"{len(r.outputs)} searches")
        for names, stdout in r.outputs:
            if names in self.answers:
                if stdout != self.answers[names]:
                    problems.append(f"{names}: answer differs from the earlier round")
                continue
            self.answers[names] = stdout
            answer = _json_or_none(stdout)
            if answer is None:
                problems.append(f"{names}: output is not JSON")
                continue
            pats = checker.patterns(names)
            lo = max(p.number_of_nodes() for p in pats)
            problems += [f"{names}: {p}" for p in checker.check_search(answer, pats, lo)]
        return problems

    def report(self, rounds: list[Round]) -> dict:
        return {
            "search_first_s": (statistics.median(r.extra["first_answer_s"] for r in rounds), "s"),
            "search_s": (statistics.median(r.norm_s for r in rounds), "s"),
            "search_peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
        }


# -- verify_large -------------------------------------------------------------

# (label, CLI arguments, patterns for the independent check, promised order)
CONSTRUCTS = [
    ("h_vs_empty C5", ["--theorem", "h_vs_empty", "--patterns", "C5", "--n", "400"],
     "C5,E400", lambda: checker.h_vs_empty_order(checker.pattern("C5"), 400)),
    ("h_vs_empty K4", ["--theorem", "h_vs_empty", "--patterns", "K4", "--n", "160"],
     "K4,E160", lambda: checker.h_vs_empty_order(checker.pattern("K4"), 160)),
    ("design q=9", ["--theorem", "design", "--patterns", "P9,C9,K9,E9", "--q", "9"],
     "P9,C9,K9,E9", lambda: checker.design_order(9)),
    ("star m=10 n=1000", ["--theorem", "star", "--m", "10", "--n", "1000"],
     "S10,E1000", lambda: checker.star_order(10, 1000)),
    ("cyclic", ["--theorem", "cyclic", "--patterns", "K6,E6,P6,C6"],
     "K6,E6,P6,C6", lambda: checker.cyclic_order(checker.patterns("K6,E6,P6,C6"))),
]
LARGE_N = 1000
SMALL_N_RANGE = (190, 210)


class VerifyLarge:
    """Two ``verify`` runs on graph6 files written during set-up, then five
    ``construct`` runs with their default verification.  The hosts are the
    C5-vs-E_1000 host (1091 vertices, as ``construct --out`` writes it) and
    a smaller C5-vs-E_n host with an isolated vertex appended (written by
    networkx), which must come back not full.

    The seed picks only n of the smaller host.  The large hosts are fixed:
    their verification time swings by 15-20% with n, and by several times
    under a relabeling, because the copy search scans hosts in index order.
    """

    setup_repeats = 5

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.small_n = random.Random(seed).randint(*SMALL_N_RANGE)
        self.large_file = runner.work / "large.g6"
        self.small_file = runner.work / "small_isolated.g6"
        self.outputs_seen: dict[str, str] = {}

    def setup(self) -> None:
        for path, n in ((self.large_file, LARGE_N), (self.small_file, self.small_n)):
            self.runner.cli(["construct", "--theorem", "h_vs_empty", "--patterns", "C5",
                             "--n", str(n), "--no-verify", "--out", str(path)])
        g = checker.decode(self.small_file.read_text())
        g.add_node(g.number_of_nodes())
        self.small_file.write_text(checker.encode(g) + "\n")
        self.runner.import_probe()

    def _ops(self) -> list[tuple[str, list[str], int]]:
        ops = [("verify large", ["verify", "--patterns", f"C5,E{LARGE_N}",
                                 str(self.large_file)], 0),
               ("verify isolated", ["verify", "--patterns", f"C5,E{self.small_n}",
                                    str(self.small_file)], 1)]
        return ops + [(label, ["construct", *args], 0) for label, args, _, _ in CONSTRUCTS]

    def round(self, trace: bool) -> Round:
        r = Round()
        for label, argv, want_rc in self._ops():
            proc, data = self.runner.cli(argv, trace)
            r.add_trace(data)
            r.procs.append(proc)
            r.attempted += 1
            if proc.rc != want_rc or _json_or_none(proc.stdout) is None:
                r.failed += 1
                continue
            r.outputs.append((label, proc.stdout))
        r.extra["verify_s"] = sum(p.norm_s for p in r.procs[:2])
        r.extra["construct_s"] = sum(p.norm_s for p in r.procs[2:])
        return r

    def check(self, r: Round) -> list[str]:
        problems = []
        promised = {label: (pats, order) for label, _, pats, order in CONSTRUCTS}
        for label, stdout in r.outputs:
            if label in self.outputs_seen:
                if stdout != self.outputs_seen[label]:
                    problems.append(f"{label}: output differs from the earlier round")
                continue
            self.outputs_seen[label] = stdout
            out = json.loads(stdout)
            if label in promised:
                problems += [f"{label}: {p}" for p in self._check_construct(out, *promised[label])]
            elif label == "verify large":
                g = checker.decode(self.large_file.read_text())
                want = checker.h_vs_empty_order(checker.pattern("C5"), LARGE_N)
                if g.number_of_nodes() != want:
                    problems.append(f"{label}: host order {g.number_of_nodes()}, formula {want}")
                pats = checker.patterns(f"C5,E{LARGE_N}")
                problems += [f"{label}: {p}" for p in checker.check_report(g, pats, out)]
            else:
                g = checker.decode(self.small_file.read_text())
                isolated = g.number_of_nodes() - 1
                want = checker.h_vs_empty_order(checker.pattern("C5"), self.small_n) + 1
                if g.number_of_nodes() != want:
                    problems.append(f"{label}: host order {g.number_of_nodes()}, formula {want}")
                pats = checker.patterns(f"C5,E{self.small_n}")
                problems += [f"{label}: {p}" for p in
                             checker.check_report(g, pats, out, [[isolated], []])]
        return problems

    def _check_construct(self, out: dict, names: str, order) -> list[str]:
        """Order by the paper's formula, then fullness certified from witnesses.

        ``construct`` reports only a verdict, so the built graph goes through
        ``verify`` once (untimed) and every witness set it reports is checked
        by networkx.
        """
        problems = []
        want = order()
        g = checker.decode(out["graph6"])
        if out.get("verified") is not True:
            problems.append(f"verified = {out.get('verified')}")
        if g.number_of_nodes() != want or out.get("order") != want:
            problems.append(f"order {g.number_of_nodes()}, formula {want}")
        if out.get("recipe", {}).get("claimed_order") != want:
            problems.append(f"recipe claims {out.get('recipe', {}).get('claimed_order')}")
        host = self.runner.work / "constructed.g6"
        host.write_text(out["graph6"] + "\n")
        proc, _ = self.runner.cli(["verify", "--patterns", names, str(host)])
        report = _json_or_none(proc.stdout)
        if report is None:
            return problems + [f"verify of the built graph exited {proc.rc}"]
        return problems + checker.check_report(g, checker.patterns(names), report)

    def report(self, rounds: list[Round]) -> dict:
        return {
            "construct_s": (statistics.median(r.extra["construct_s"] for r in rounds), "s"),
            "verify_s": (statistics.median(r.extra["verify_s"] for r in rounds), "s"),
            "verify_peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
        }


# -- cache_warm ---------------------------------------------------------------

FILL_RECORDS = 1000
WARM_SEARCHES = 8
WARM_LOOKUPS = 200


class CacheWarm:
    """Answers drawn from a cache filled during set-up by real ``f_exact`` calls.

    The instances (``warm_instances.json``) are every multiset of two or
    three graphs of order 2..4 whose f is at most 5.  Each (instance, lower
    hint, upper hint) with lower <= f <= upper is a distinct cache key; the
    seed samples the filled keys and draws the keys answered.  A round is
    ``WARM_SEARCHES`` ``fullgraph search`` subprocesses and one interpreter
    making ``WARM_LOOKUPS`` in-process ``f_exact`` calls.
    """

    # one set-up is a 1000-record cache fill of about 6 s
    setup_repeats = 2

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.rng = random.Random(seed)
        table = json.loads((BENCH / "warm_instances.json").read_text())
        keys = []
        for inst in table["instances"]:
            lo0 = max(p.number_of_nodes() for p in checker.patterns(inst["patterns"]))
            keys += [(inst["patterns"], lo, hi, inst["f"])
                     for lo in range(lo0, inst["f"] + 1) for hi in range(inst["f"], 10)]
        self.keys = self.rng.sample(keys, FILL_RECORDS)
        self.cache = runner.work / "warm_cache"
        self.stored: dict[tuple, dict] = {}
        self.cli_seen: dict[tuple, str] = {}
        self.witness_checked: set[tuple] = set()

    def setup(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        ops = [{"kind": "f_exact", "patterns": p, "lower": lo, "upper": hi,
                "cache_dir": str(self.cache)} for p, lo, hi, _ in self.keys]
        proc, data = self.runner.worker(ops, trace=False)
        if data is None:
            raise RuntimeError(f"cache fill failed with exit code {proc.rc}")
        self.stored = {k[:3]: op["result"] for k, op in zip(self.keys, data["ops"])}
        self.cache_size = (self.cache / "f_exact.jsonl").stat().st_size

    def round(self, trace: bool) -> Round:
        r = Round()
        searches = [self.rng.choice(self.keys)[:3] for _ in range(WARM_SEARCHES)]
        lookups = [self.rng.choice(self.keys)[:3] for _ in range(WARM_LOOKUPS)]
        for key in searches:
            p, lo, hi = key
            argv = ["search", "--patterns", p, "--lower", str(lo), "--max-order", str(hi),
                    "--cache-dir", str(self.cache)]
            proc, data = self.runner.cli(argv, trace)
            r.add_trace(data)
            r.procs.append(proc)
            r.attempted += 1
            if proc.rc != 0 or _json_or_none(proc.stdout) is None:
                r.failed += 1
                continue
            r.outputs.append(("cli", key, proc.stdout))
        r.extra["search_ms"] = [p.norm_s * 1000 for p in r.procs]
        ops = [{"kind": "f_exact", "patterns": p, "lower": lo, "upper": hi,
                "cache_dir": str(self.cache)} for p, lo, hi in lookups]
        proc, data = self.runner.worker(ops, trace)
        r.add_trace(data)
        r.procs.append(proc)
        r.attempted += len(ops)
        done = data["ops"] if data else []
        r.failed += len(ops) - len(done)
        times = [data["t0"] - data["spent0"]] + [op["t"] - op["spent"] for op in done] \
            if data else []
        scale = speed.scale(data["speed"]) if data else 1.0
        r.extra["lookup_ms"] = [(b - a) * scale * 1000 for a, b in zip(times, times[1:])]
        r.outputs += [("f_exact", key, op["result"]) for key, op in zip(lookups, done)]
        r.extra["cache_size"] = (self.cache / "f_exact.jsonl").stat().st_size
        return r

    def check(self, r: Round) -> list[str]:
        problems = []
        if r.extra["cache_size"] != self.cache_size:
            problems.append(f"cache grew from {self.cache_size} to {r.extra['cache_size']} "
                            "bytes: some answer was not a hit")
        f_of = {k[:3]: k[3] for k in self.keys}
        for kind, key, out in r.outputs:
            stored = self.stored[key]
            if kind == "cli":
                if key in self.cli_seen and out != self.cli_seen[key]:
                    problems.append(f"{key}: search output differs between hits")
                self.cli_seen[key] = out
                want = {k: v for k, v in stored.items() if k != "wall_time"}
                if json.dumps(json.loads(out), sort_keys=True) != json.dumps(want, sort_keys=True):
                    problems.append(f"{key}: search answer differs from the stored one")
            elif out != stored:
                problems.append(f"{key}: f_exact answer differs from the stored one")
            if key in self.witness_checked:
                continue
            self.witness_checked.add(key)
            if stored.get("f") != f_of[key]:
                problems.append(f"{key}: f = {stored.get('f')}, expected {f_of[key]}")
            elif not checker.is_full_small(checker.decode(stored["witness"]),
                                           checker.patterns(key[0])):
                problems.append(f"{key}: witness {stored['witness']} is not full")
        return problems

    def report(self, rounds: list[Round]) -> dict:
        search = [t for r in rounds for t in r.extra["search_ms"]]
        lookup = [t for r in rounds for t in r.extra["lookup_ms"]]
        return {
            "warm_search_ms": (statistics.median(search), "ms", _p90(search), len(search)),
            "warm_lookup_ms": (statistics.median(lookup), "ms", _p90(lookup), len(lookup)),
        }


def _p90(values: list[float]) -> float | None:
    # the 90th percentile is reported once at least ten samples lie beyond it
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


WORKLOADS = {"search_cold": SearchCold, "verify_large": VerifyLarge, "cache_warm": CacheWarm}


# -- per-layer metrics ----------------------------------------------------------


# Counts that the workload fixes when the program is correct: every warm
# lookup is a hit, and the enumerator accepts one child per class it
# reaches.  They are printed beside the metrics but are not metrics, since
# a direction on either would reward a defect.
INVARIANTS = ("oracle.children_accepted", "oracle.cache_hits")


def layer_metrics(traces: list[dict], startup: list[float]) -> tuple[dict, dict, dict, list]:
    """Sum the traced processes of one round into counts, times and invariants."""
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    counters: dict[str, int] = {}
    absent = set(tracer.SPAN_BASES)
    for t in traces:
        absent &= set(t["absent"])
        for base, n in t["calls"].items():
            calls[base] = calls.get(base, 0) + n
            seconds[base] = seconds.get(base, 0.0) + t["self_s"][base]
        for name, n in t["counters"].items():
            counters[name] = counters.get(name, 0) + n
    counts = {}
    for base in tracer.SPAN_BASES:
        if base not in absent:
            counts[f"{base}.calls"] = calls.get(base, 0)
    counts["cli.startup.calls"] = len(startup)
    for name in ("oracle.subsets_tried", "oracle.hosts_examined",
                 "oracle.cache_bytes_read", "verifier.adjacent_calls"):
        if name in counters:
            counts[name] = counters[name]
    invariants = {name: counters[name] for name in INVARIANTS if name in counters}
    ratios = {}
    if "oracle.subsets_tried" in counters:
        ratios["oracle.accept_ratio"] = _ratio(counters["oracle.children_accepted"],
                                               counters["oracle.subsets_tried"])
    if "oracle.hosts_examined" in counters and "oracle.host_check" not in absent:
        ratios["oracle.prefilter_pass_ratio"] = _ratio(calls.get("oracle.host_check", 0),
                                                       counters["oracle.hosts_examined"])
    if "verifier.find_copy" not in absent:
        ratios["verifier.vertices_per_find"] = _ratio(counters.get("verifier.vertices_covered", 0),
                                                      calls.get("verifier.find_copy", 0))
    times = {f"{base}.s": seconds.get(base, 0.0)
             for base in tracer.SPAN_BASES if base not in absent}
    times["cli.startup.s"] = statistics.median(startup)
    return counts, {**times, **ratios}, invariants, sorted(absent)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


UNITS = {
    "oracle.cache_bytes_read": "bytes",
    "oracle.accept_ratio": "ratio",
    "oracle.prefilter_pass_ratio": "ratio",
    "verifier.vertices_per_find": "vertices",
    "trace.overhead_s": "s",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(".s") else "count"


# -- main -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fullgraph" / "__init__.py").is_file():
        print(f"error: no src/fullgraph under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, work: Path) -> int:
    runner = Runner(root, work)
    workload = WORKLOADS[args.workload](runner, args.seed)

    setups = []
    for _ in range(workload.setup_repeats):
        first = len(runner.procs)
        t0 = time.monotonic()
        workload.setup()
        wall = time.monotonic() - t0
        # the children's share on the nominal scale, the parent's own as timed
        setups.append(wall + sum(p.norm_s - p.wall_s for p in runner.procs[first:]))
    setup_s = statistics.median(setups)

    rounds: list[Round] = []
    traced: Round | None = None
    started = time.monotonic()
    if args.trace:
        rounds.append(workload.round(trace=False))
        traced = workload.round(trace=True)
    else:
        while not rounds or time.monotonic() - started < args.seconds:
            rounds.append(workload.round(trace=False))

    everything = rounds + ([traced] if traced else [])
    problems = []
    for r in everything:
        problems += workload.check(r)
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} untraced round(s)"
          + (", 1 traced round" if traced else ""))
    print(f"  setup_s {setup_s:.4f} s (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"  round_s {statistics.median(r.norm_s for r in rounds):.4f} s (median of "
          f"{len(rounds)}: " + ", ".join(f"{r.norm_s:.3f}" for r in rounds)
          + "; wall " + ", ".join(f"{r.wall_s:.3f}" for r in rounds) + ")")
    for name, value in workload.report(rounds).items():
        line = f"  {name} {value[0]:.4f} {value[1]}"
        if len(value) > 2:
            line += f" (p90 {value[2]:.4f}, n = {value[3]})" if value[2] is not None \
                else f" (n = {value[3]})"
        print(line)
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    print(f"  attempted {attempted}, failed {failed}, checks "
          + ("passed" if not problems else f"failed ({len(problems)})"))

    if args.trace:
        startup = [runner.startup_probe().wall_s for _ in range(STARTUP_SAMPLES)]
        counts, times, invariants, absent = layer_metrics(traced.traces, startup)
        times["trace.overhead_s"] = traced.norm_s - rounds[0].norm_s
        print("  per-layer counts (repeat exactly for one commit and seed):")
        for name, value in counts.items():
            print(f"    {name} {value}")
        print("  invariants (fixed by the workload; not metrics):")
        for name, value in invariants.items():
            print(f"    {name} {value}")
        print("  per-layer times and ratios:")
        for name, value in times.items():
            print(f"    {name} {value:.6g} {_unit(name)}")
        if absent:
            print("  absent: " + ", ".join(absent))
        metrics = {name: (value, _unit(name)) for name, value in {**counts, **times}.items()}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (statistics.median(r.norm_s for r in rounds), "s"),
            "peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
        }

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setups_s": setups,
        "rounds": [{"wall_s": r.wall_s, "norm_s": r.norm_s,
                    "peak_rss_mb": r.peak_rss_mb,
                    "procs": [{"rc": p.rc, "wall_s": p.wall_s, "norm_s": p.norm_s,
                               "rss_mb": p.rss_mb} for p in r.procs]} for r in everything],
        "workload_metrics": workload.report(rounds),
        "problems": problems,
        "result": result,
    }
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
