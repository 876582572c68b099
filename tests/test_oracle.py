"""Canonical labeling, isomorph-free enumeration, and the exact-minimum search.

Enumeration counts at orders 1..5 are derived here independently by
canonicalizing the entire labeled space; the larger counts are standard
sequence values asserted directly.
"""

import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgraph import oracle
from fullgraph.graphs import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    duplicate_vertex,
    empty,
    from_graph6,
    path,
    relabeled,
    star,
    to_graph6,
)
from fullgraph.oracle import (
    ENUMERATION_ORDER_CAP,
    SearchResult,
    _automorphisms,
    _cache_lookup,
    _cache_store,
    _canonical_search,
    _children,
    _degree_window,
    _level,
    _pattern_form,
    _refine,
    canonical_form,
    enumerate_graphs,
    f_exact,
    resolve_cache_dir,
)
from fullgraph.patterns import parse_pattern_list
from fullgraph.verifier import extend_partial_map, find_induced_copy_containing, is_full


def canonical_labeling(g):
    return _canonical_search(g)[0]


def enumeration_digest(n, count=None):
    """Digest of the graph6 of the first ``count`` representatives of order n, or of all of them."""
    graphs = itertools.islice(enumerate_graphs(n), count)
    return hashlib.sha1("\n".join(to_graph6(g) for g in graphs).encode()).hexdigest()[:12]


def orbit(x, maps):
    """Orbit of x under the group generated by ``maps``, each indexed as x -> image."""
    seen, stack = {x}, [x]
    while stack:
        y = stack.pop()
        for m in maps:
            if m[y] not in seen:
                seen.add(m[y])
                stack.append(m[y])
    return seen


def brute_is_full(host, patterns):
    """Fullness by brute force: each vertex subset of a pattern's order is compared
    pairwise with every relabeling of the pattern."""
    everyone = set(range(host.order))
    for p in patterns:
        pairs = list(itertools.combinations(range(p.order), 2))
        shapes = {tuple((p.rows[perm[i]] >> perm[j]) & 1 for i, j in pairs)
                  for perm in itertools.permutations(range(p.order))}
        covered = set()
        for combo in itertools.combinations(range(host.order), p.order):
            if tuple((host.rows[combo[i]] >> combo[j]) & 1 for i, j in pairs) in shapes:
                covered.update(combo)
        if covered != everyone:
            return False
    return True


def unpack_rows(data, n):
    """Rows of a packed representative: (n + 7) // 8 little-endian bytes a row."""
    width = (n + 7) // 8
    return tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))


def blow_up(g, sizes):
    """Replace vertex v of g by sizes[v] pairwise non-adjacent twins."""
    for v, size in enumerate(sizes):
        for _ in range(size - 1):
            g = duplicate_vertex(g, v)
    return g


def twin_heavy_graphs():
    """Graphs of order 8-16 whose vertices fall into few classes of twins."""
    yield empty(16)
    yield complete(16)
    yield star(16)
    yield complete_bipartite(3, 5)
    yield disjoint_union(*[complete(4)] * 4)
    yield disjoint_union(empty(8), complete(8))
    for sizes in [(3, 3, 4), (2, 2, 2, 2, 2, 2), (1, 2, 3, 4, 5), (4, 4, 4, 4), (1, 1, 7, 7)]:
        yield complement(disjoint_union(*(complete(s) for s in sizes)))  # complete multipartite
    for g, sizes in [(cycle(5), (2, 3, 1, 4, 2)), (path(4), (3, 1, 4, 2)), (cycle(6), (1, 2, 3, 1, 2, 3))]:
        yield blow_up(g, sizes)
        yield complement(blow_up(g, sizes))  # twins adjacent to each other


def labeled_space(n):
    count = n * (n - 1) // 2
    for bits in range(1 << count):
        edges = []
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                if (bits >> idx) & 1:
                    edges.append((i, j))
                idx += 1
        yield Graph.from_edges(n, edges)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(31337)
        for _ in range(150):
            n = rng.randint(1, 9)
            p = rng.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            base = canonical_form(g)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == base

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_separates_classes_in_labeled_space(self, n, classes):
        forms = {canonical_form(g) for g in labeled_space(n)}
        assert len(forms) == classes

    def test_labeling_is_an_isomorphism(self):
        rng = random.Random(999)
        for _ in range(60):
            n = rng.randint(1, 8)
            p = rng.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            lab = canonical_labeling(g)
            assert sorted(lab) == list(range(n))
            h = relabeled(g, lab)
            assert to_graph6(h).encode() == canonical_form(g)

    def test_distinguishes_regular_pairs(self):
        # C6 versus 2*K3: both 2-regular on six vertices
        assert canonical_form(cycle(6)) != canonical_form(disjoint_union(complete(3), complete(3)))
        # C5 is self-complementary territory: just check it differs from P5
        assert canonical_form(cycle(5)) != canonical_form(path(5))

    def test_forms_beyond_the_enumeration_are_pinned(self):
        # cache keys canonicalize patterns up to order 16, past the
        # enumeration digests, which stop at order 9
        rng = random.Random(16)
        forms = []
        for n in range(10, 17):
            for _ in range(60):
                p = rng.random()
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
                forms.append(canonical_form(Graph.from_edges(n, edges)))
        for n in range(3, 14):
            for jumps in range(1, 1 << (n // 2)):
                edges = {tuple(sorted((i, (i + d + 1) % n))) for i in range(n) for d in range(n // 2) if jumps >> d & 1}
                g = Graph.from_edges(n, edges)
                perm = list(range(n))
                rng.shuffle(perm)
                form = canonical_form(g)
                assert canonical_form(relabeled(g, perm)) == form
                forms.append(form)
        assert len(forms) == 659
        assert hashlib.sha1(b"\n".join(forms)).hexdigest()[:12] == "35425d762526"

    def test_forms_of_twin_heavy_graphs_are_pinned(self):
        # the pin above holds random graphs and circulants, which have few twins
        rng = random.Random(20)
        forms = []
        for g in twin_heavy_graphs():
            form = canonical_form(g)
            for _ in range(5):
                perm = list(range(g.order))
                rng.shuffle(perm)
                assert canonical_form(relabeled(g, perm)) == form
            forms.append(form)
        assert len(forms) == 17
        assert hashlib.sha1(b"\n".join(forms)).hexdigest()[:12] == "e3bc0b7acaba"


def orbits_of(n, perms):
    """Vertex orbits of the group generated by ``perms``, as a set of frozensets."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in perms:
        for v in range(n):
            parent[find(v)] = find(p[v])
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in groups.values()}


def proven_orbits(g):
    """Vertex orbits of Aut(g), each vertex proved equivalent to its orbit's first by a copy search."""
    orbits = []
    for v in range(g.order):
        for orbit in orbits:
            if extend_partial_map(g, g, {orbit[0]: v}) is not None:
                orbit.append(v)
                break
        else:
            orbits.append([v])
    return {frozenset(o) for o in orbits}


def is_automorphism(g, p):
    rows = g.rows
    return sorted(p) == list(range(g.order)) and all(
        rows[p[v]] == sum(1 << p[u] for u in range(g.order) if rows[v] >> u & 1) for v in range(g.order))


class TestRecordedGenerators:
    """The generators ``_automorphisms`` finds on one walk down the first path of the search tree."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generate_the_automorphism_group(self, n):
        for g in enumerate_graphs(n):
            rows = g.rows
            group = {
                p for p in itertools.permutations(range(n))
                if all(rows[p[v]] == sum(1 << p[u] for u in range(n) if rows[v] >> u & 1) for v in range(n))
            }
            gens = _automorphisms(g)
            assert all(p in group for p in gens)
            assert orbits_of(n, gens) == orbits_of(n, group)
            identity = tuple(range(n))
            closure, frontier = {identity}, [identity]
            while frontier:
                a = frontier.pop()
                for p in gens:
                    b = tuple(p[a[v]] for v in range(n))
                    if b not in closure:
                        closure.add(b)
                        frontier.append(b)
            assert len(closure) == len(group)

    @pytest.mark.parametrize("graphs", [
        pytest.param(lambda: enumerate_graphs(7), id="order-7"),
        pytest.param(twin_heavy_graphs, id="twin-heavy"),
    ])
    def test_are_automorphisms_with_the_proven_orbits(self, graphs):
        for g in graphs():
            gens = _automorphisms(g)
            assert all(is_automorphism(g, p) for p in gens), to_graph6(g)
            assert orbits_of(g.order, gens) == proven_orbits(g), to_graph6(g)

    def test_search_leaves_nothing_for_the_cyclic_collector(self):
        graphs = [cycle(5), path(6), complete(4), disjoint_union(cycle(4), cycle(4)), cycle(8)]
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        before = len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(20):
                for g in graphs:
                    _automorphisms(g)
                    _canonical_search(g)
            gc.collect()
            assert gc.garbage[before:] == []
        finally:
            del gc.garbage[before:]
            gc.set_debug(flags)
            if enabled:
                gc.enable()

    def test_recording_leaves_the_labeling_unchanged(self):
        # the walk and the search share no state: a walk before or after a
        # search changes neither, and its maps are automorphisms with the proven orbits
        rng = random.Random(4242)
        for _ in range(100):
            n = rng.randint(1, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            labeled = _canonical_search(g)
            gens = _automorphisms(g)
            assert _canonical_search(g) == labeled
            assert _automorphisms(g) == gens
            assert all(is_automorphism(g, p) for p in gens)
            assert orbits_of(n, gens) == proven_orbits(g)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_graphs(n)) == count

    def test_representatives_are_pairwise_non_isomorphic(self):
        for n in range(1, 7):
            forms = [canonical_form(g) for g in enumerate_graphs(n)]
            assert len(forms) == len(set(forms))

    def test_representatives_cover_the_labeled_space(self):
        for n in range(1, 6):
            enumerated = {canonical_form(g) for g in enumerate_graphs(n)}
            labeled = {canonical_form(g) for g in labeled_space(n)}
            assert enumerated == labeled

    def test_every_representative_has_the_right_order(self):
        for n in range(1, 7):
            assert all(g.order == n for g in enumerate_graphs(n))

    @pytest.mark.parametrize("n,digest", [
        (1, "9a78211436f6"), (2, "003411611a97"), (3, "e7116b284492"), (4, "d5a6e0198834"),
        (5, "95eaecf933fa"), (6, "7dd100699f9c"), (7, "69609c4c30e3"),
    ])
    def test_sequence_is_pinned(self, n, digest):
        # graph6 of every representative, in order: the sequence itself is part of
        # the contract, since witnesses and cache records depend on it
        assert enumeration_digest(n) == digest

    def test_order_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(ENUMERATION_ORDER_CAP + 1))
        with pytest.raises(ValueError):
            next(enumerate_graphs(0))

    def test_order_eight_count(self):
        assert sum(1 for _ in enumerate_graphs(8)) == 12346

    def test_order_eight_sequence_is_pinned(self):
        assert enumeration_digest(8) == "19a4a06bbc42"

    def test_order_nine_prefix_is_pinned(self):
        # the first 20,000 classes of order 9, from the first 526 parents of order 8:
        # each parent's generators and each tie child's decision reach the sequence
        assert enumeration_digest(9, 20000) == "8f4fe1fef834"


class TestLevelStore:
    """Each parent is extended once, when a reader first reaches it.

    Every test runs in a child interpreter, so the store starts empty; the
    child records the parent order of every ``_children`` call.
    """

    PRELUDE = """
import hashlib, itertools, json, sys
sys.path.insert(0, {src!r})
from fullgraph import oracle
from fullgraph.graphs import to_graph6
extended = []
children = oracle._children
oracle._children = lambda rows, z: extended.append(z) or children(rows, z)
"""

    def run(self, code):
        src = str(Path(oracle.__file__).resolve().parent.parent)
        p = subprocess.run([sys.executable, "-c", self.PRELUDE.format(src=src) + code],
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        return json.loads(p.stdout)

    def test_an_early_stop_leaves_later_parents_unextended(self):
        extended = self.run("list(itertools.islice(oracle.enumerate_graphs(8), 512))\n"
                            "print(json.dumps(extended))")
        assert extended.count(7) < 1044

    def test_a_second_read_extends_no_parent(self):
        again = self.run("for _ in oracle.enumerate_graphs(8): pass\n"
                         "before = len(extended)\n"
                         "for _ in oracle.enumerate_graphs(8): pass\n"
                         "print(json.dumps(extended[before:]))")
        assert again == []

    def test_a_read_after_an_early_stop_is_whole(self):
        digest = self.run("list(itertools.islice(oracle.enumerate_graphs(8), 3000))\n"
                          "text = '\\n'.join(to_graph6(g) for g in oracle.enumerate_graphs(8))\n"
                          "print(json.dumps(hashlib.sha1(text.encode()).hexdigest()[:12]))")
        assert digest == "19a4a06bbc42"


class TestWorkCounts:
    """Automorphism tests, refinements, walks and canonical searches that enumerating order 8 makes.

    Counted in a child interpreter, so the level store starts empty, through
    the names ``oracle`` calls them by.  A walk (``_automorphisms``) and a
    canonical search are counted by the order of their graph.
    """

    CODE = """
import json, sys
sys.path.insert(0, {src!r})
from fullgraph import oracle
counts = dict.fromkeys(["extend_partial_map", "_refine"], 0)
def counted(name, f):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return f(*args, **kwargs)
    return wrapper
for name in counts:
    setattr(oracle, name, counted(name, getattr(oracle, name)))
by_order = {{"walked": {{}}, "searched": {{}}}}
def by_order_of(kind, f):
    def wrapper(g, *args):
        by_order[kind][g.order] = by_order[kind].get(g.order, 0) + 1
        return f(g, *args)
    return wrapper
oracle._automorphisms = by_order_of("walked", oracle._automorphisms)
oracle._canonical_search = by_order_of("searched", oracle._canonical_search)
for _ in oracle.enumerate_graphs(8): pass
print(json.dumps(dict(counts, **by_order)))
"""

    def test_order_eight_counts_are_pinned(self):
        src = str(Path(oracle.__file__).resolve().parent.parent)
        p = subprocess.run([sys.executable, "-c", self.CODE.format(src=src)],
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        # one walk a parent; a twin candidate is mapped with no copy search; a
        # tie child is labeled only when its orbit proof fails
        assert json.loads(p.stdout) == {
            "extend_partial_map": 2962, "_refine": 6458,
            "walked": {"1": 1, "2": 2, "3": 4, "4": 11, "5": 34, "6": 156, "7": 1044},
            "searched": {"7": 4, "8": 45},
        }


@pytest.mark.slow
class TestEnumerationLarge:
    def test_order_nine_count(self):
        assert sum(1 for _ in enumerate_graphs(9)) == 274668

    def test_order_nine_sequence_is_pinned(self):
        assert enumeration_digest(9) == "5ea5bfed2144"


def tuple_keyed_refine(rows, partition, splitters):
    """The refinement as it was before its keys were packed: the reference for ``_refine``."""
    while splitters:
        masks = [sum(1 << v for v in cell) for cell in splitters]
        single = masks[0] if len(masks) == 1 else 0
        new: list[list[int]] = []
        splitters = []
        for cell in partition:
            if len(cell) == 1:
                new.append(cell)
                continue
            keyed: dict[int | tuple[int, ...], list[int]] = {}
            for v in cell:
                if single:  # one splitter: its count alone, which sorts as its 1-tuple would
                    key = (rows[v] & single).bit_count()
                else:
                    key = tuple([(rows[v] & m).bit_count() for m in masks])
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new.append(cell)
            else:
                pieces = [keyed[key] for key in sorted(keyed)]
                new.extend(pieces)
                splitters.extend(pieces[:-1])
        partition = new
    return partition


class TestPackedRefinement:
    @staticmethod
    def graphs():
        """K16 and K16 less a perfect matching, whose counts reach 15 and 14, then seeded random graphs."""
        yield complete(16)
        yield Graph.from_edges(16, [(i, j) for i in range(16) for j in range(i + 1, 16) if j != i ^ 1])
        rng = random.Random(3316)
        for _ in range(600):
            n, p = rng.randint(1, 16), rng.random()
            yield Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])

    def test_packed_keys_split_as_tuple_keys(self):
        # canonical_form refines up to order 16, where a count reaches 15: the edge of
        # the five-bit fields that len(rows).bit_length() gives
        rng = random.Random(3317)
        split = 0
        for g in self.graphs():
            n = g.order
            cases = [([list(range(n))], [list(range(n))])]
            for _ in range(4):
                vertices = rng.sample(range(n), n)
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
                partition = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
                splitters = [cell for cell in partition if rng.random() < 0.5] or partition[:1]
                cases.append((partition, splitters))
            for partition, splitters in cases:
                want = tuple_keyed_refine(g.rows, partition, splitters)
                assert _refine(g.rows, partition, splitters) == want, (to_graph6(g), partition, splitters)
                split += want != partition
        assert split > 1500


class TestSearchCuts:
    def test_degree_window_rejects_only_uncoverable_vertices(self):
        patterns = [p for k in range(1, 5) for p in enumerate_graphs(k)]
        hosts = [g for n in range(1, 8) for g in enumerate_graphs(n)]
        rejected = 0
        for p in patterns:
            for host in hosts:
                if host.order < p.order:
                    continue
                window = _degree_window(p, host.order)
                for v, row in enumerate(host.rows):
                    if not window >> row.bit_count() & 1:
                        rejected += 1
                        assert find_induced_copy_containing(host, p, v) is None
        assert rejected == 17582

    @staticmethod
    def root(g):
        return _refine(g.rows, [list(range(g.order))], [list(range(g.order))])

    def test_last_vertex_orbit_lies_in_the_last_root_cell(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                assert orbit(canonical_labeling(g)[-1], _automorphisms(g)) <= set(self.root(g)[-1])

    def test_given_root_changes_nothing(self, monkeypatch):
        # the same labeling, through the same automorphism tests in the same order
        proofs = []

        def recording(host, pattern, pins):
            proofs.append((host.rows, dict(pins)))
            return extend_partial_map(host, pattern, pins)

        monkeypatch.setattr(oracle, "extend_partial_map", recording)
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                proofs.clear()
                searched = _canonical_search(g)
                unrooted = proofs[:]
                proofs.clear()
                assert _canonical_search(g, self.root(g)) == searched
                assert proofs == unrooted

    @staticmethod
    def shortcut_graphs():
        """Every representative of orders 1-7, then 300 seeded random graphs of orders 8-12."""
        for n in range(1, 8):
            yield from enumerate_graphs(n)
        rng = random.Random(1508)
        for _ in range(300):
            n, p = rng.randint(8, 12), rng.random()
            yield Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])

    def test_vertex_alone_in_last_root_cell_is_canonically_last(self):
        alone = 0
        for g in self.shortcut_graphs():
            last = self.root(g)[-1]
            if len(last) == 1:
                alone += 1
                assert canonical_labeling(g)[-1] == last[0]
        assert alone > 300

    def test_unique_greatest_degree_is_alone_in_last_root_cell(self):
        unique = 0
        for g in self.shortcut_graphs():
            degrees = [r.bit_count() for r in g.rows]
            top = [v for v, d in enumerate(degrees) if d == max(degrees)]
            if len(top) == 1:
                unique += 1
                assert self.root(g)[-1] == top
        assert unique > 300

    @staticmethod
    def reference_children(rows, z):
        """Rows of the children of a parent, accepted by one canonical search each."""
        gens = _automorphisms(Graph(z, rows))
        images = [[sum(1 << p[v] for v in range(z) if s >> v & 1) for s in range(1 << z)] for p in gens]
        degrees = [r.bit_count() for r in rows]
        covered = set()
        for subset in range(1 << z):
            if subset in covered:
                continue
            covered |= orbit(subset, images)
            k = subset.bit_count()
            if any(d + (subset >> v & 1) > k for v, d in enumerate(degrees)):
                continue
            child = Graph(z + 1, tuple(r | (subset >> v & 1) << z for v, r in enumerate(rows)) + (subset,))
            if z in orbit(canonical_labeling(child)[-1], _automorphisms(child)):
                yield child.rows

    def test_children_match_a_canonical_search_per_candidate(self):
        def rows_of(data, n):
            width = (n + 7) // 8
            return tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))

        for z in range(1, 8):
            for rows in _level(z):
                got = [rows_of(child, z + 1) for child in _children(rows, z)]
                assert got == list(self.reference_children(rows, z)), rows

    @staticmethod
    def candidate_children(rows, z):
        """Rows of the child of every degree-passing Aut(parent) orbit root, least subset first."""
        gens = _automorphisms(Graph(z, rows))
        images = [[sum(1 << p[v] for v in range(z) if s >> v & 1) for s in range(1 << z)] for p in gens]
        degrees = [r.bit_count() for r in rows]
        covered = set()
        for subset in range(1 << z):
            k = subset.bit_count()
            if subset in covered or any(d + (subset >> v & 1) > k for v, d in enumerate(degrees)):
                continue
            covered |= orbit(subset, images)
            yield tuple(r | (subset >> v & 1) << z for v, r in enumerate(rows)) + (subset,)

    def test_unrefined_decisions_agree_with_the_refined_root(self, monkeypatch):
        # a child that _children decides without refining its root must have z
        # alone in the root's last cell when kept, or with z's twins only (an
        # orbit of the child), and outside it when dropped
        parents = [(z, parent) for z in range(1, 8) for parent in _level(z)]
        refine, refined = _refine, set()

        def recording_refine(rows, partition, splitters):
            refined.add(rows)
            return refine(rows, partition, splitters)

        monkeypatch.setattr(oracle, "_refine", recording_refine)
        dropped = kept_by_key = kept_with_twins = 0
        for z, parent in parents:
            refined.clear()
            kept = {unpack_rows(child, z + 1) for child in _children(parent, z)}
            for child_rows in self.candidate_children(parent, z):
                if child_rows in refined:
                    continue
                last = refine(child_rows, [list(range(z + 1))], [list(range(z + 1))])[-1]
                if child_rows in kept:
                    twins = [u for u in last if not (child_rows[u] ^ child_rows[z]) & ~(1 << u | 1 << z)]
                    assert z in last and twins == last, child_rows
                    kept_with_twins += len(last) > 1
                    degrees = [r.bit_count() for r in child_rows]
                    kept_by_key += degrees.count(degrees[z]) > 1
                else:
                    assert z not in last, child_rows
                    dropped += 1
        assert dropped > 5000 and kept_by_key > 3000 and kept_with_twins > 1000

    def test_orbit_proof_keeps_only_children_whose_new_vertex_is_canonically_last(self, monkeypatch):
        # a tie child whose last root cell holds z and more is kept unlabeled when
        # an automorphism maps z to each other vertex of the cell; the cell holds
        # the canonically last vertex, so z is then in its orbit.  A child with no
        # such proof is labeled, and kept or dropped by its labeling
        search, labeled = _canonical_search, set()

        def recording_search(g, root=None):
            if root is not None:
                labeled.add(g.rows)
            return search(g, root)

        monkeypatch.setattr(oracle, "_canonical_search", recording_search)
        proved, fallback = 0, {True: 0, False: 0}
        for z in range(1, 8):
            for parent in _level(z):
                labeled.clear()
                kept = {unpack_rows(child, z + 1) for child in _children(parent, z)}
                for child_rows in self.candidate_children(parent, z):
                    g = Graph(z + 1, child_rows)
                    last = self.root(g)[-1]
                    if z not in last or len(last) == 1:
                        continue
                    canonical = z in orbit(search(g)[0][-1], _automorphisms(g))
                    assert (child_rows in kept) == canonical, child_rows
                    if all(extend_partial_map(g, g, {z: u}) is not None for u in last if u != z):
                        proved += 1
                        assert canonical and child_rows not in labeled, child_rows
                    else:
                        assert child_rows in labeled, child_rows
                        fallback[canonical] += 1
        assert proved > 2000 and fallback == {True: 22, False: 27}


@pytest.mark.slow
class TestSearchCutsLarge:
    def test_children_match_a_canonical_search_per_candidate_at_order_nine(self):
        # two bytes a child row and half-width subset tables of 4 + 4 bits
        parents = random.Random(1608).sample(list(_level(8)), 200)
        for rows in parents:
            got = [unpack_rows(child, 9) for child in _children(rows, 8)]
            assert got == list(TestSearchCuts.reference_children(rows, 8)), rows


# the six searches of the benchmark's search_cold workload -> digest of their answers
PINNED_ANSWERS = {
    "K3,E3": "29fea32b17be", "S4,E5": "805a674db6bd", "C4,E4": "293ba8ce4cf9",
    "P4,E4": "ddbcef93a8fb", "C5,E3": "aefa77390b26", "K2+E1,E3": "0aa6d4e64f12",
}


def answer_digest(result):
    """Digest of f, witness and examined counts per order: the whole result."""
    return hashlib.sha1(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()[:12]


class TestFExact:
    def test_edge_nonedge_instance(self, tmp_path):
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r.f == 4
        assert r.exhaustive
        assert r.exhausted_orders == (2, 3)
        host = from_graph6(r.witness)
        assert host.order == 4
        assert is_full(host, [complete(2), empty(2)]).verdict

    def test_isolated_pattern_instance(self, tmp_path):
        h = disjoint_union(complete(2), complete(1))
        r = f_exact([h, empty(3)], cache_dir=tmp_path)
        assert r.f == 4
        assert is_full(from_graph6(r.witness), [h, empty(3)]).verdict

    def test_single_pattern(self, tmp_path):
        r = f_exact([complete(3)], cache_dir=tmp_path)
        assert r.f == 3 and r.witness == to_graph6(complete(3))

    def test_lower_hint_skips_orders(self, tmp_path):
        r = f_exact([complete(2), empty(2)], lower_hint=4, cache_dir=tmp_path)
        assert r.f == 4
        assert list(r.examined) == [4]
        assert r.exhausted_orders == ()

    def test_lower_hint_never_changes_the_answer(self, tmp_path):
        base = f_exact([complete(2), empty(3)], cache_dir=tmp_path)
        hinted = f_exact([complete(2), empty(3)], lower_hint=5, cache_dir=tmp_path)
        assert base.f == hinted.f == 6

    def test_upper_hint_caps_search(self, tmp_path):
        r = f_exact([complete(4), empty(4)], upper_hint=6, cache_dir=tmp_path)
        assert r.f is None
        assert r.exhaustive
        assert r.exhausted_orders == (4, 5, 6)
        assert "no qualifying graph" in r.note

    def test_beyond_cap_is_flagged_not_exhaustive(self, tmp_path):
        r = f_exact([complete(4), empty(10)], upper_hint=12, cache_dir=tmp_path)
        assert r.f is None
        assert not r.exhaustive
        assert "capped" in r.note

    def test_unexamined_orders_start_where_the_scan_would(self, tmp_path):
        r = f_exact([complete(11)], upper_hint=12, cache_dir=tmp_path)
        assert r.note == "orders 11..12 not examined: enumeration is capped at order 9"
        r = f_exact([complete(4), empty(4)], lower_hint=10, upper_hint=10, cache_dir=tmp_path)
        assert r.note == "orders 10..10 not examined: enumeration is capped at order 9"

    def test_inconsistent_hints_raise(self, tmp_path):
        with pytest.raises(ValueError):
            f_exact([complete(3)], lower_hint=7, upper_hint=5, cache_dir=tmp_path)

    def test_requires_patterns(self, tmp_path):
        with pytest.raises(ValueError):
            f_exact([], cache_dir=tmp_path)

    @pytest.mark.parametrize("instance,position", [("K2,E2", 5), ("P4,E4", 65), ("C5,E3", 385)])
    def test_witness_is_the_first_full_host_in_walk_order(self, tmp_path, instance, position):
        patterns = parse_pattern_list(instance)
        r = f_exact(patterns, cache_dir=tmp_path)
        first = next((i, g) for i, g in enumerate(enumerate_graphs(r.f), 1) if brute_is_full(g, patterns))
        assert first == (position, from_graph6(r.witness))
        assert r.examined[r.f] == position

    def test_pattern_order_lower_bounds_result(self, tmp_path):
        r = f_exact([path(4)], cache_dir=tmp_path)
        assert r.f == 4

    @pytest.mark.parametrize("instance,digest", PINNED_ANSWERS.items())
    def test_answers_are_pinned(self, tmp_path, instance, digest):
        # f, witness and examined counts per order; S4,E5 streams into order 9
        assert answer_digest(f_exact(parse_pattern_list(instance), cache_dir=tmp_path)) == digest

    def test_stop_at_gap_agrees_on_every_host_checked(self, tmp_path, monkeypatch):
        # every host the six searches hand to the host check, with the verdict each gives
        checked = []

        def recording(host, patterns, **kwargs):
            report = is_full(host, patterns, **kwargs)
            checked.append((host, patterns, report.verdict))
            return report

        monkeypatch.setattr(oracle, "is_full", recording)
        for instance, digest in PINNED_ANSWERS.items():
            assert answer_digest(f_exact(parse_pattern_list(instance), cache_dir=tmp_path)) == digest
        # each search stops at its first full host
        assert sum(verdict for _, _, verdict in checked) == len(PINNED_ANSWERS)
        for host, patterns, verdict in checked:
            assert verdict == is_full(host, patterns).verdict, to_graph6(host)


class TestScanMemo:
    """Each order is scanned once a process; a later search reads its count and witness from ``_SCANS``."""

    @staticmethod
    def counting_scans(monkeypatch):
        """Route ``oracle.enumerate_graphs`` through a recorder; returns the orders scanned."""
        scanned, enumerate_all = [], oracle.enumerate_graphs

        def counted(order):
            scanned.append(order)
            return enumerate_all(order)

        monkeypatch.setattr(oracle, "enumerate_graphs", counted)
        return scanned

    @pytest.mark.parametrize("instance,f,top", [("K2,E2", 4, 9), ("C5,E3", 7, 9), ("K4,E4", None, 7)])
    def test_every_key_answers_as_from_an_empty_memo(self, tmp_path, monkeypatch, instance, f, top):
        # every (lo, hi) with lo <= f <= hi <= top, or lo <= hi <= top when no f is reached
        patterns = parse_pattern_list(instance)
        start = max(p.order for p in patterns)
        keys = [(lo, hi) for lo in range(start, (f or top) + 1) for hi in range(max(lo, f or lo), top + 1)]
        assert len(keys) > 5
        fresh = []
        for lo, hi in keys:
            monkeypatch.setattr(oracle, "_SCANS", {})
            fresh.append(f_exact(patterns, lo, hi, tmp_path / f"fresh-{lo}-{hi}").to_dict())
        monkeypatch.setattr(oracle, "_SCANS", {})
        scanned = self.counting_scans(monkeypatch)
        memo = [f_exact(patterns, lo, hi, tmp_path / f"memo-{lo}-{hi}").to_dict() for lo, hi in keys]
        assert memo == fresh
        # one scan per order the keys reach, and the same cache line as a fresh scan writes
        assert sorted(scanned) == list(range(start, (f or top) + 1))
        for lo, hi in keys:
            assert ((tmp_path / f"memo-{lo}-{hi}" / "f_exact.jsonl").read_bytes()
                    == (tmp_path / f"fresh-{lo}-{hi}" / "f_exact.jsonl").read_bytes())

    def test_a_second_key_of_a_searched_instance_scans_nothing(self, tmp_path, monkeypatch):
        first = f_exact([cycle(5), empty(3)], cache_dir=tmp_path / "first")

        def scan(order):
            raise AssertionError(f"order {order} was scanned")

        monkeypatch.setattr(oracle, "enumerate_graphs", scan)
        hinted = f_exact([cycle(5), empty(3)], lower_hint=6, upper_hint=8, cache_dir=tmp_path / "hinted")
        assert (hinted.f, hinted.witness) == (7, first.witness)
        assert hinted.examined == {6: first.examined[6], 7: first.examined[7]}
        # reordered and relabeled patterns: the same key, so the same record and line
        again = f_exact([empty(3), relabeled(cycle(5), [2, 4, 0, 1, 3])], cache_dir=tmp_path / "again")
        assert again == first
        assert ((tmp_path / "again" / "f_exact.jsonl").read_bytes()
                == (tmp_path / "first" / "f_exact.jsonl").read_bytes())
        # an order no search has finished is scanned
        with pytest.raises(AssertionError, match="order 8 was scanned"):
            f_exact([cycle(5), empty(3)], lower_hint=8, cache_dir=tmp_path / "beyond")

    def test_an_interrupted_scan_stores_nothing(self, tmp_path, monkeypatch):

        def failing(host, patterns, **kwargs):
            if host.order == 7:
                raise MemoryError
            return is_full(host, patterns, **kwargs)

        monkeypatch.setattr(oracle, "is_full", failing)
        patterns = parse_pattern_list("C5,E3")
        with pytest.raises(MemoryError):
            f_exact(patterns, cache_dir=tmp_path)
        # orders 5 and 6 finished and are kept; order 7 raised and is not, and no record was stored
        assert sorted(order for _, order in oracle._SCANS) == [5, 6]
        assert (tmp_path / "f_exact.jsonl").read_bytes() == b""
        monkeypatch.setattr(oracle, "is_full", is_full)
        scanned = self.counting_scans(monkeypatch)
        assert answer_digest(f_exact(patterns, cache_dir=tmp_path)) == PINNED_ANSWERS["C5,E3"]
        assert scanned == [7]


class TestCache:
    def test_second_call_hits_cache(self, tmp_path):
        r1 = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        # wipe nothing; a second call must return the stored record
        r2 = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r1.f == r2.f and r1.witness == r2.witness
        cache_file = tmp_path / "f_exact.jsonl"
        assert cache_file.exists()
        lines = cache_file.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_cache_is_keyed_by_canonical_patterns(self, tmp_path):
        f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        # same instance, patterns permuted and relabeled: still one record
        shuffled = relabeled(complete(2), [1, 0])
        f_exact([empty(2), shuffled], cache_dir=tmp_path)
        lines = (tmp_path / "f_exact.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_distinct_hints_are_distinct_records(self, tmp_path):
        f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        f_exact([complete(2), empty(2)], lower_hint=4, cache_dir=tmp_path)
        lines = (tmp_path / "f_exact.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_corrupt_cache_line_is_ignored(self, tmp_path):
        cache_file = tmp_path / "f_exact.jsonl"
        cache_file.write_text("not json at all\n")
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r.f == 4

    def test_malformed_records_are_skipped(self, tmp_path):
        good = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        cache_file = tmp_path / "f_exact.jsonl"
        key = json.loads(cache_file.read_text())["key"]
        bad = ["[]", '"text"', "7", json.dumps({"key": key, "result": {}}),
               json.dumps({"key": key, "result": []}), json.dumps({"result": good.to_dict()})]
        with cache_file.open("a") as fh:
            fh.write("\n".join(bad) + "\n")
        assert _cache_lookup(tmp_path, key) == good
        cache_file.write_text("\n".join(bad) + "\n")
        assert _cache_lookup(tmp_path, key) is None
        assert f_exact([complete(2), empty(2)], cache_dir=tmp_path) == good

    def test_records_written_in_turn_are_whole_lines(self, tmp_path):
        results = [f_exact([complete(2), empty(k)], cache_dir=tmp_path / "fill") for k in (2, 3)]
        keys = [f"key-{i}" for i in range(6)]
        for i, key in enumerate(keys):
            _cache_store(tmp_path, key, results[i % 2])
        lines = (tmp_path / "f_exact.jsonl").read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert [json.loads(line)["key"] for line in lines[:-1]] == keys
        for i, key in enumerate(keys):
            assert _cache_lookup(tmp_path, key) == results[i % 2]

    def test_records_under_the_old_key_shape_are_not_answered(self, tmp_path):
        # keys without a version were written before the note on unexamined
        # orders was corrected; such a record is never a hit
        canon = sorted(canonical_form(g).decode() for g in (complete(2), empty(2)))
        stale = SearchResult(patterns=tuple(canon), f=None, witness=None, exhausted_orders=(2, 3, 4),
                             examined={2: 2, 3: 4, 4: 11}, exhaustive=False, note="stale")
        _cache_store(tmp_path, json.dumps({"hi": 9, "lo": 2, "patterns": canon}, sort_keys=True), stale)
        assert f_exact([complete(2), empty(2)], cache_dir=tmp_path).f == 4
        keys = [json.loads(line)["key"] for line in (tmp_path / "f_exact.jsonl").read_text().splitlines()]
        assert len(keys) == 2
        assert json.loads(keys[1]) == {"hi": 9, "lo": 2, "patterns": canon, "version": 3}

    def test_records_of_the_block_witness_rule_are_not_answered(self, tmp_path):
        # version-2 keys hold witnesses picked as the least hit of a 512-host block
        canon = sorted(canonical_form(g).decode() for g in (complete(2), empty(2)))
        bogus = SearchResult(patterns=tuple(canon), f=4, witness="C~", exhausted_orders=(2, 3),
                             examined={2: 2, 3: 4, 4: 11}, exhaustive=True)
        key = {"hi": 9, "lo": 2, "patterns": canon, "version": 2}
        _cache_store(tmp_path, json.dumps(key, sort_keys=True), bogus)
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r.witness == "CQ" and r.examined == {2: 2, 3: 4, 4: 5}
        keys = [json.loads(line)["key"] for line in (tmp_path / "f_exact.jsonl").read_text().splitlines()]
        assert [json.loads(k) for k in keys] == [key, {**key, "version": 3}]

    @pytest.mark.parametrize("change", [
        {"witness": to_graph6(empty(4))},  # decodes, has order f, is not full
        {"witness": "C"},                  # does not decode
        {"witness": 7},
        {"witness": to_graph6(cycle(5))},  # full, but not of order f
        {"f": None},
        {"witness": None},
        {"f": 0, "witness": "?"},          # the order-0 host is vacuously full
    ])
    def test_a_hit_whose_witness_fails_is_a_miss(self, tmp_path, change):
        self.assert_forged_record_is_a_miss(tmp_path, [complete(2), empty(2)], {}, change)

    @staticmethod
    def assert_forged_record_is_a_miss(cache_dir, patterns, hints, change):
        """A search's record with ``change`` applied is a miss: the search runs and appends its own."""
        good = f_exact(patterns, cache_dir=cache_dir, **hints)
        cache_file = cache_dir / "f_exact.jsonl"
        key = json.loads(cache_file.read_text())["key"]
        cache_file.unlink()
        stored = {**good.to_dict(), **change}
        _cache_store(cache_dir, key, SearchResult.from_dict(stored))
        assert _cache_lookup(cache_dir, key).to_dict() == stored
        r = f_exact(patterns, cache_dir=cache_dir, **hints)
        assert r == good
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["result"] == r.to_dict()
        # the fresh record is the newest, so the next call hits it and writes nothing
        data = cache_file.read_bytes()
        assert f_exact(patterns, cache_dir=cache_dir, **hints) == r
        assert cache_file.read_bytes() == data

    @pytest.mark.parametrize("patterns,hints,change", [
        # another instance's patterns and counts around a witness that holds
        ([cycle(5), empty(3)], {},
         {"patterns": ["B?", "Dhc"], "examined": {"5": 1, "6": 2, "7": 999}, "exhausted_orders": []}),
        ([cycle(5), empty(3)], {}, {"patterns": ["B?", "Dhc"]}),
        ([cycle(5), empty(3)], {}, {"patterns": ["DLo"]}),
        ([cycle(5), empty(3)], {}, {"examined": {"5": 34, "6": 156}}),
        ([cycle(5), empty(3)], {}, {"examined": {"5": 34, "6": 156, "7": 385, "8": 1}}),
        ([cycle(5), empty(3)], {}, {"examined": {"4": 1, "5": 34, "6": 156, "7": 385}}),
        ([cycle(5), empty(3)], {}, {"exhausted_orders": [5]}),
        ([cycle(5), empty(3)], {}, {"exhausted_orders": [5, 6, 7]}),
        ([cycle(5), empty(3)], {}, {"exhaustive": False}),
        # no answer up to hi: every order through hi is examined and exhausted
        ([complete(4), empty(4)], {"upper_hint": 6}, {"examined": {"4": 11, "5": 34}}),
        ([complete(4), empty(4)], {"upper_hint": 6}, {"exhausted_orders": [4, 5]}),
        ([complete(4), empty(4)], {"upper_hint": 6}, {"exhaustive": False}),
        # orders past the enumeration cap: nothing is examined, and the result is not exhaustive
        ([complete(2), empty(2)], {"lower_hint": 10, "upper_hint": 11}, {"exhaustive": True}),
        ([complete(2), empty(2)], {"lower_hint": 10, "upper_hint": 11}, {"examined": {"10": 1}}),
        ([complete(2), empty(2)], {"lower_hint": 10, "upper_hint": 11}, {"exhausted_orders": [10, 11]}),
    ])
    def test_a_hit_that_does_not_match_its_key_is_a_miss(self, tmp_path, patterns, hints, change):
        self.assert_forged_record_is_a_miss(tmp_path, patterns, hints, change)

    def test_cold_searches_write_the_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            f_exact([cycle(5), empty(3)], cache_dir=tmp_path / name)
            f_exact([complete(4), empty(4)], upper_hint=6, cache_dir=tmp_path / name)
        data = (tmp_path / "a" / "f_exact.jsonl").read_bytes()
        assert len(data.splitlines()) == 2
        assert (tmp_path / "b" / "f_exact.jsonl").read_bytes() == data

    def test_a_hit_with_no_answer_is_kept(self, tmp_path):
        # f and witness both null: no witness to re-check, and the orders match the key
        r = f_exact([complete(4), empty(4)], upper_hint=6, cache_dir=tmp_path)
        assert r.f is None and r.witness is None
        data = (tmp_path / "f_exact.jsonl").read_bytes()
        assert f_exact([complete(4), empty(4)], upper_hint=6, cache_dir=tmp_path) == r
        assert (tmp_path / "f_exact.jsonl").read_bytes() == data

    def test_resolution_order(self, tmp_path, monkeypatch):
        explicit = tmp_path / "explicit"
        env = tmp_path / "env"
        monkeypatch.setenv("FULLGRAPH_CACHE", str(env))
        assert resolve_cache_dir(explicit) == explicit
        assert resolve_cache_dir(None) == env
        monkeypatch.delenv("FULLGRAPH_CACHE")
        assert "fullgraph" in str(resolve_cache_dir(None))

    def test_relabeled_patterns_get_the_same_key_and_record(self, tmp_path):
        first = f_exact([path(4), star(4)], cache_dir=tmp_path)
        hits = _pattern_form.cache_info().hits
        second = f_exact([relabeled(star(4), [3, 1, 0, 2]), relabeled(path(4), [2, 0, 3, 1])], cache_dir=tmp_path)
        lines = (tmp_path / "f_exact.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert second.to_dict() == first.to_dict()  # the stored record
        assert f_exact([star(4), path(4)], cache_dir=tmp_path) == first
        assert _pattern_form.cache_info().hits >= hits + 2

    def test_search_result_round_trips(self, tmp_path):
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        clone = SearchResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert clone == r


# -- the cache lookup against a scan of the whole file --------------------------


def store_head(key):
    """How every record ``_cache_store`` writes for ``key`` begins."""
    return ('{"key": ' + json.dumps(key) + ', "result": ').encode()


def scanned_lookup(cache_dir, key):
    """The lookup as a scan of the whole file on every call: the reference.

    Only a line that begins as ``_cache_store`` spells a record of ``key`` is
    a candidate; the newest one that parses and names the key wins.
    """
    path = cache_dir / "f_exact.jsonl"
    if not path.exists():
        return None
    for line in reversed(path.read_bytes().split(b"\n")):
        if not line.startswith(store_head(key)):
            continue
        try:
            record = json.loads(line.decode())
            if record["key"] == key:
                return SearchResult.from_dict(record["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            continue
    return None


INDEX_KEYS = [json.dumps({"hi": 9, "lo": lo, "patterns": ["A_", "Bw"]}, sort_keys=True)
              for lo in (2, 3, 4)] + ["back\\slash \"quoted\" café", "raw café"]
INDEX_RESULTS = [
    SearchResult(patterns=("A_", "Bw"), f=f, witness="Cr" if f else None,
                 exhausted_orders=tuple(range(2, f or 5)), examined={2: 2, 3: f or 4},
                 exhaustive=f is not None, note="" if f else "no qualifying graph")
    for f in (4, 5, None)
]


def malformed_lines():
    k0, k1 = INDEX_KEYS[0], INDEX_KEYS[1]
    good = INDEX_RESULTS[2].to_dict()
    nested = dict(good, key=k1)
    return [
        "not json at all",
        "[]",
        '"text"',
        "7",
        json.dumps({"key": k0, "result": {}}),
        json.dumps({"key": k0, "result": []}),
        json.dumps({"result": good}),
        json.dumps({"key": 5, "result": good}),
        # json keeps the last of repeated members and reads escapes in member
        # names, so these two parse as records of k1, in a spelling no store writes
        f'{{"key": {json.dumps(k0)}, "result": {json.dumps(good)}, "key": {json.dumps(k1)}}}',
        f'{{"key": {json.dumps(k0)}, "k\\u0065y": {json.dumps(k1)}, "result": {json.dumps(good)}}}',
        # "key" inside the result names nothing
        json.dumps({"key": k1, "result": nested}),
        # UTF-8 written as is rather than escaped
        json.dumps({"key": INDEX_KEYS[4], "result": good}, ensure_ascii=False),
    ]


def record_line(k, r):
    return json.dumps({"key": INDEX_KEYS[k], "result": INDEX_RESULTS[r].to_dict()}, sort_keys=True)


KEY_INDEX = st.integers(0, len(INDEX_KEYS) - 1)
RESULT_INDEX = st.integers(0, len(INDEX_RESULTS) - 1)
CACHE_OPS = st.one_of(
    st.tuples(st.just("store"), KEY_INDEX, RESULT_INDEX),
    st.tuples(st.just("malformed"), st.integers(0, len(malformed_lines()) - 1)),
    st.tuples(st.just("unfinished"), KEY_INDEX, RESULT_INDEX),
    st.tuples(st.just("newline")),
    st.tuples(st.sampled_from(["truncate", "shuffle", "grow", "replace"]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("delete")),
)


class TestCacheIndex:
    """``_cache_lookup`` answers what a scan of the whole file answers, after any edit."""

    def test_store_spelling_is_pinned(self, tmp_path):
        # the lookup finds a record by the bytes its line starts with
        result = SearchResult(patterns=("A_", "Bw"), f=4, witness="Cr", exhausted_orders=(2, 3),
                              examined={2: 2, 3: 4}, exhaustive=True)
        _cache_store(tmp_path, 'caf\u00e9 "q"', result)
        assert (tmp_path / "f_exact.jsonl").read_bytes() == (
            b'{"key": "caf\\u00e9 \\"q\\"", "result": {"examined": {"2": 2, "3": 4}, '
            b'"exhausted_orders": [2, 3], "exhaustive": true, "f": 4, "note": "", '
            b'"patterns": ["A_", "Bw"], "witness": "Cr"}}\n')
        assert (tmp_path / "f_exact.jsonl").read_bytes().startswith(store_head('caf\u00e9 "q"'))

    @staticmethod
    def apply(path, op):
        if op[0] == "store":
            _cache_store(path.parent, INDEX_KEYS[op[1]], INDEX_RESULTS[op[2]])
            return
        if op[0] in ("malformed", "unfinished", "newline"):
            text = {"malformed": lambda: malformed_lines()[op[1]] + "\n",
                    "unfinished": lambda: record_line(op[1], op[2]),
                    "newline": lambda: "\n"}[op[0]]()
            with path.open("ab") as fh:
                fh.write(text.encode())
            return
        if op[0] == "delete":
            path.unlink(missing_ok=True)
            return
        rng = random.Random(op[1])
        data = path.read_bytes() if path.exists() else b""
        lines = data.splitlines(keepends=True)
        if op[0] == "truncate":
            data = data[:rng.randrange(len(data) + 1)]
        elif op[0] == "shuffle":
            rng.shuffle(lines)
            data = b"".join(lines)
        else:
            extra = [(record_line(rng.randrange(len(INDEX_KEYS)), rng.randrange(len(INDEX_RESULTS)))
                      + "\n").encode() for _ in range(rng.randint(1, 3))]
            lines[rng.randrange(len(lines) + 1):0] = extra
            data = b"".join(lines)
        if op[0] == "replace":
            fresh = path.with_name("fresh.jsonl")
            fresh.write_bytes(data)
            os.replace(fresh, path)
        else:
            # in place: same file, new content
            with path.open("r+b" if path.exists() else "wb") as fh:
                fh.write(data)
                fh.truncate()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.lists(CACHE_OPS, max_size=20))
    def test_matches_a_scan_of_the_whole_file(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = Path(tmp)
            path = cache_dir / "f_exact.jsonl"
            for op in ops:
                self.apply(path, op)
                for key in INDEX_KEYS:
                    got, want = _cache_lookup(cache_dir, key), scanned_lookup(cache_dir, key)
                    assert (got and got.to_dict()) == (want and want.to_dict()), (op, key)

    def test_lines_in_another_spelling_name_no_key(self, tmp_path):
        # json reads each of these lines as a record of the key listed, but
        # _cache_store never spells a record so: every lookup misses
        lines = malformed_lines()
        others = [lines[8], lines[9], lines[11]]
        assert [json.loads(line)["key"] for line in others] == [INDEX_KEYS[1], INDEX_KEYS[1], INDEX_KEYS[4]]
        (tmp_path / "f_exact.jsonl").write_text("\n".join(others) + "\n", encoding="utf-8")
        for key in INDEX_KEYS:
            assert _cache_lookup(tmp_path, key) is None

    def test_unfinished_last_line_is_read_but_completed_later(self, tmp_path):
        path = tmp_path / "f_exact.jsonl"
        path.write_text(record_line(0, 0) + "\n" + record_line(0, 1))
        assert _cache_lookup(tmp_path, INDEX_KEYS[0]).to_dict() == INDEX_RESULTS[1].to_dict()
        with path.open("a") as fh:
            fh.write("x\n")
        assert _cache_lookup(tmp_path, INDEX_KEYS[0]).to_dict() == INDEX_RESULTS[0].to_dict()

    def test_undecodable_line_is_skipped(self, tmp_path):
        # the whole-file scan raised UnicodeDecodeError here
        (tmp_path / "f_exact.jsonl").write_bytes(b"\xff\xfe\n" + record_line(0, 0).encode() + b"\n")
        assert _cache_lookup(tmp_path, INDEX_KEYS[0]) == INDEX_RESULTS[0]
        assert _cache_lookup(tmp_path, INDEX_KEYS[1]) is None

    def test_concurrent_lookups_and_stores_agree(self, tmp_path):
        # each key's newest line is malformed, so a lookup walks back past it
        # to the record before, while other threads append to the same file
        keys = [f"threaded {i}" for i in range(60)]
        want = {k: INDEX_RESULTS[i % len(INDEX_RESULTS)] for i, k in enumerate(keys)}
        wrong, stop = [], threading.Event()

        def reader():
            while not stop.is_set():
                for k in keys:
                    found = _cache_lookup(tmp_path, k)
                    if found is not None and found.to_dict() != want[k].to_dict():
                        wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            for k in keys:
                with (tmp_path / "f_exact.jsonl").open("a") as fh:
                    fh.write(json.dumps({"key": k, "result": want[k].to_dict()}, sort_keys=True)
                             + "\n" + json.dumps({"key": k, "result": {}}) + "\n")
                time.sleep(0.001)
            stop.set()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert all(_cache_lookup(tmp_path, k) == want[k] for k in keys)
