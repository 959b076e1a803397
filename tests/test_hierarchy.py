import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hietan.errors import CyclicHierarchy, HieTanError, IndexOutOfRange, ParseError, UnreadableName
from hietan.hierarchy import (
    build_dag,
    dag_from_edge_names,
    dag_from_file,
    random_dag,
    read_dag_file,
    read_utf8_bytes,
    write_dag_file,
)

from conftest import A, B, C, D, E, F
from oracles import hierarchically_related, random_dag_reference, relatives


def bfs_ancestors(n, edges, v):
    """Independent oracle: reachability over reversed edges."""
    parents = {i: set() for i in range(n)}
    for p, c in edges:
        parents[c].add(p)
    seen = set()
    frontier = [v]
    while frontier:
        node = frontier.pop()
        for p in parents[node]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return seen


class TestBuildDag:
    def test_canonical_ancestors_of_d(self, canonical_dag):
        assert set(relatives(canonical_dag, D, "ancestors")) == {C, A, F, E}

    def test_no_edges_empty_closures(self):
        dag = build_dag(5, [])
        for v in range(5):
            assert relatives(dag, v, "ancestors") == ()
            assert relatives(dag, v, "descendants") == ()

    def test_random_dag_matches_bfs_oracle(self):
        edges = random_dag(12, 20, seed=5)
        dag = build_dag(12, edges)
        for v in range(12):
            assert set(relatives(dag, v, "ancestors")) == bfs_ancestors(12, edges, v)

    @pytest.mark.parametrize("n, k", [
        (0, 0), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (2, 5),
        (7, 21), (7, 40), (30, 45), (150, 240),
    ])
    def test_random_dag_matches_list_sampler(self, n, k):
        for seed in (0, 1, 2**40):
            assert random_dag(n, k, seed) == random_dag_reference(n, k, seed)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(0, 60), st.integers(0, 2000), st.integers(0, 2**32))
    def test_random_dag_matches_list_sampler_anywhere(self, n, k, seed):
        assert random_dag(n, k, seed) == random_dag_reference(n, k, seed)

    def test_rejects_cycles(self):
        with pytest.raises(CyclicHierarchy):
            build_dag(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CyclicHierarchy):
            build_dag(1, [(0, 0)])

    def test_rejects_back_edges_in_random_dags(self):
        rng = random.Random(0)
        for trial in range(30):
            n = rng.randrange(4, 20)
            edges = random_dag(n, rng.randrange(3, n * 2), seed=trial)
            if not edges:
                continue
            dag = build_dag(n, edges)
            # Inject a back-edge from a feature onto one of its ancestors.
            pools = [(v, a) for v in range(n) for a in relatives(dag, v, "ancestors")]
            if not pools:
                continue
            v, a = pools[rng.randrange(len(pools))]
            with pytest.raises(CyclicHierarchy):
                build_dag(n, edges + [(v, a)])

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            build_dag(3, [(0, 3)])
        with pytest.raises(IndexOutOfRange):
            build_dag(3, [(-1, 0)])

    def test_related_ixs_are_the_ascending_relatives(self):
        rng = random.Random(8)
        for trial in range(20):
            n = rng.randrange(1, 70)
            dag = build_dag(n, random_dag(n, rng.randrange(0, 3 * n), seed=200 + trial))
            for v in range(n):
                bits = dag.ancestor_bits[v] | dag.descendant_bits[v]
                assert dag.related_ixs[v] == tuple(i for i in range(n) if bits >> i & 1)

    def test_transpose_swaps_closures(self):
        rng = random.Random(3)
        for trial in range(20):
            n = rng.randrange(2, 30)
            edges = random_dag(n, rng.randrange(0, 2 * n), seed=100 + trial)
            fwd = build_dag(n, edges)
            rev = build_dag(n, [(c, p) for p, c in edges])
            assert fwd.ancestor_bits == rev.descendant_bits
            assert fwd.descendant_bits == rev.ancestor_bits

    def test_closure_oracle_up_to_50_nodes(self):
        rng = random.Random(11)
        for trial in range(15):
            n = rng.randrange(2, 51)
            edges = random_dag(n, rng.randrange(0, 3 * n), seed=trial)
            dag = build_dag(n, edges)
            for v in range(n):
                assert set(relatives(dag, v, "ancestors")) == bfs_ancestors(n, edges, v)


class TestQueries:
    def test_is_ancestor_examples(self, canonical_dag):
        assert canonical_dag.is_ancestor(E, A)
        assert not canonical_dag.is_ancestor(B, D)
        for v in range(6):
            assert not canonical_dag.is_ancestor(v, v)

    def test_is_ancestor_bad_index(self, canonical_dag):
        with pytest.raises(IndexOutOfRange):
            canonical_dag.is_ancestor(0, 6)

    def test_hierarchically_related(self, canonical_dag):
        assert not hierarchically_related(canonical_dag, C, A)
        assert hierarchically_related(canonical_dag, F, C)
        assert hierarchically_related(canonical_dag, C, F)
        for v in range(6):
            assert not hierarchically_related(canonical_dag, v, v)

    def test_directions_follow_dag(self, canonical_dag):
        # The learners orient a related pair ancestor -> descendant.
        assert canonical_dag.is_ancestor(F, C) and not canonical_dag.is_ancestor(C, F)
        assert canonical_dag.is_ancestor(E, A) and not canonical_dag.is_ancestor(A, E)
        assert canonical_dag.is_ancestor(A, D) and not canonical_dag.is_ancestor(D, A)
        assert not hierarchically_related(canonical_dag, A, C)

    def test_related_lists_both_directions(self, canonical_dag):
        assert set(relatives(canonical_dag, C, "related")) == {F, E, D}
        assert set(relatives(canonical_dag, D, "related")) == {A, C, E, F}
        for v in range(6):
            up, down = (relatives(canonical_dag, v, k) for k in ("ancestors", "descendants"))
            assert relatives(canonical_dag, v, "related") == tuple(sorted(up + down))

    def test_sink_features(self, canonical_dag):
        assert canonical_dag.sink_features == (B, D)


class TestDagFile:
    def test_round_trip(self, tmp_path, canonical_dag):
        names = ("A", "B", "C", "D", "E", "F")
        path = tmp_path / "hier.tsv"
        write_dag_file(path, sorted(canonical_dag.edges), names)
        again = dag_from_file(path, names)
        assert again.edges == canonical_dag.edges

    @pytest.mark.parametrize("parent, child", [
        ("a\tb", "c"), ("a", "b\t"), ("a\nb", "c"), ("a", "b\u2029"), (" a", "c"),
        ("a", "c "), ("#a", "c"), ("", "c"), ("a", ""), ("a", "a"), ("a\udc80", "c"),
        ("\ufeffa", "c"),
    ], ids=repr)
    def test_unreadable_names_are_refused(self, tmp_path, parent, child):
        path = tmp_path / "hier.tsv"
        with pytest.raises(UnreadableName) as err:
            write_dag_file(path, [(0, 1)], (parent, child))
        assert isinstance(err.value, ValueError) and isinstance(err.value, HieTanError)
        assert not path.exists()

    @pytest.mark.parametrize("parent, child", [
        ("a,b", "c"), ("a b", "#c"), ("\u00e9", "c;d"), ("a#", "b"),
    ], ids=repr)
    def test_odd_names_round_trip(self, tmp_path, parent, child):
        path = tmp_path / "hier.tsv"
        write_dag_file(path, [(0, 1)], (parent, child))
        assert read_dag_file(path) == [(parent, child)]

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.text(max_size=3), st.text(max_size=3))
    def test_any_names_read_back_or_are_refused(self, tmp_path, parent, child):
        path = tmp_path / "hier.tsv"
        path.unlink(missing_ok=True)
        try:
            write_dag_file(path, [(0, 1)], (parent, child))
        except UnreadableName:
            assert not path.exists()
        else:
            assert read_dag_file(path) == [(parent, child)]

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        """One leading byte-order mark is not part of the first line; a
        second one, or one that starts a later line, is part of a name."""
        path = tmp_path / "hier.tsv"
        for data, pairs in [
            (b"\xef\xbb\xbfa\tb\n", [("a", "b")]),
            (b"\xef\xbb\xbf# edges\na\tb\n", [("a", "b")]),
            (b"\xef\xbb\xbf\xef\xbb\xbfa\tb\n", [("\ufeffa", "b")]),
            (b"a\tb\n\xef\xbb\xbfc\td\n", [("a", "b"), ("\ufeffc", "d")]),
        ]:
            path.write_bytes(data)
            assert read_dag_file(path) == pairs

    def test_errors_after_a_byte_order_mark_count_from_the_first_byte(self, tmp_path):
        path = tmp_path / "hier.tsv"
        data = b"\xef\xbb\xbfa\tb\nc\t\xff\n"
        path.write_bytes(data)
        at = data.index(b"\xff")
        with pytest.raises(ParseError, match=rf":2: not UTF-8 text \(invalid start byte at byte {at}\)"):
            read_dag_file(path)
        path.write_bytes(b"\xef\xbb\xbfa\tb\nc\n")
        with pytest.raises(ParseError, match=":2: expected") as err:
            read_dag_file(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("data", [
        b"a\tb\n", "\u00e9\tb\n".encode(), b"a\t\xef\xbb\xbfb\n", b"\n\xef\xbb\xbfa\tb\n", b"",
    ], ids=repr)
    def test_bytes_without_a_leading_byte_order_mark_read_as_they_are(self, tmp_path, data):
        path = tmp_path / "hier.tsv"
        path.write_bytes(data)
        assert read_utf8_bytes(path) == data

    def test_byte_order_mark_after_the_first_name_round_trips(self, tmp_path):
        # Only the name that starts the file would lose its U+FEFF.
        path = tmp_path / "hier.tsv"
        write_dag_file(path, [(0, 1), (1, 2)], ("a", "\ufeffb", "c"))
        assert read_dag_file(path) == [("a", "\ufeffb"), ("\ufeffb", "c")]

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "hier.tsv"
        path.write_text("# a comment\n\nroot\tleaf\n")
        assert read_dag_file(path) == [("root", "leaf")]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "hier.tsv"
        path.write_text("justonetoken\n")
        with pytest.raises(ParseError) as err:
            read_dag_file(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("brk", [
        "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ], ids=repr)
    def test_non_utf8_byte_reported_on_its_line(self, tmp_path, brk):
        path = tmp_path / "hier.tsv"
        path.write_bytes(f"# edges{brk}a\tb{brk}".encode() + b"c\t\xff" + brk.encode())
        with pytest.raises(ParseError, match=":3: not UTF-8 text") as err:
            read_dag_file(path)
        assert err.value.line == 3

    def test_unknown_features_dropped_with_warning(self):
        pairs = [("A", "B"), ("A", "ghost")]
        with pytest.warns(UserWarning, match="ghost"):
            dag = dag_from_edge_names(pairs, ("A", "B"))
        assert dag.edges == frozenset({(0, 1)})
