"""Graph construction, d-separation (both algorithms), backdoor checks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpuscausal.errors import (
    CyclicGraphError,
    DuplicateNodeError,
    OverlappingSetsError,
    UnknownNodeError,
)
from corpuscausal.graph import (
    CANONICAL_ADJUSTMENTS,
    CausalGraph,
    build_graph,
    enumerate_paths,
    is_d_separated,
    is_d_separated_by_enumeration,
    reference_graph,
    satisfies_backdoor,
)


def chain_graph():
    return build_graph("ABC", [("A", "B"), ("B", "C")])


def collider_graph():
    return build_graph("ABC", [("A", "C"), ("B", "C")])


class TestBuildGraph:
    def test_minimal_chain(self):
        g = chain_graph()
        assert set(g.nodes) == {"A", "B", "C"}
        assert set(g.edges) == {("A", "B"), ("B", "C")}

    def test_two_cycle_rejected(self):
        with pytest.raises(CyclicGraphError):
            build_graph("AB", [("A", "B"), ("B", "A")])

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicGraphError):
            build_graph("A", [("A", "A")])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownNodeError):
            build_graph("AB", [("A", "C")])

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNodeError):
            build_graph(["A", "B", "A"], [])

    # a graph constructed directly is held to the same checks
    def test_direct_construction_rejects_unknown_endpoint(self):
        with pytest.raises(UnknownNodeError, match="undeclared node: 'b'"):
            CausalGraph(("a",), (("a", "b"),))

    def test_direct_construction_rejects_duplicate_node(self):
        with pytest.raises(DuplicateNodeError, match="duplicate node name: 'a'"):
            CausalGraph(("a", "a"), ())

    def test_repeated_edges_are_dropped(self):
        g = build_graph("AB", [("A", "B"), ["A", "B"]])
        assert g.edges == (("A", "B"),)

    def test_parents_children_descendants(self):
        g = chain_graph()
        assert g.parents("B") == {"A"}
        assert g.children("B") == {"C"}
        assert g.descendants("A") == {"B", "C"}
        assert g.descendants("C") == set()


class TestReferenceGraph:
    def test_seventeen_nodes(self):
        assert len(reference_graph().nodes) == 17

    def test_deterministic(self):
        assert reference_graph() == reference_graph()

    def test_is_dag(self):
        reference_graph()  # construction validates acyclicity

    def test_outcome_flags_are_leaves(self):
        g = reference_graph()
        for leaf in ("O_utt", "O_poc", "O_soc"):
            assert g.children(leaf) == set()

    def test_key_parent_sets(self):
        g = reference_graph()
        assert g.parents("KBT") == {"subj", "obj", "rel"}
        assert g.parents("utterance") == {"pattern", "KBT", "SOC_so"}
        assert g.parents("prediction") == {"cloze", "model"}
        assert g.parents("POC_uo") == {"pattern"}
        assert g.parents("O_soc") == {"prediction", "SO_hC"}
        assert g.parents("dataset") == {"utterance"}


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = chain_graph()
        assert is_d_separated(g, "A", "C", {"B"})
        assert not is_d_separated(g, "A", "C", set())

    def test_collider_blocks_until_conditioned(self):
        g = collider_graph()
        assert is_d_separated(g, "A", "B", set())
        assert not is_d_separated(g, "A", "B", {"C"})

    def test_trimmed_reference_graph_blocks_utt_outcome(self):
        g = reference_graph()
        trimmed = build_graph(
            g.nodes, [(a, b) for a, b in g.edges if a != "utterance"]
        )
        assert is_d_separated(
            trimmed, "utterance", "O_utt", {"pattern", "KBT", "SOC_so"}
        )

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            is_d_separated(chain_graph(), "A", "Z", set())

    def test_overlapping_sets(self):
        with pytest.raises(OverlappingSetsError):
            is_d_separated(chain_graph(), "A", "C", {"A"})

    def test_enumeration_agrees_on_examples(self):
        for g, x, y, z in [
            (chain_graph(), "A", "C", {"B"}),
            (chain_graph(), "A", "C", set()),
            (collider_graph(), "A", "B", set()),
            (collider_graph(), "A", "B", {"C"}),
        ]:
            assert is_d_separated(g, x, y, z) == is_d_separated_by_enumeration(
                g, x, y, z
            )


def random_dag(rng, max_nodes=8):
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    density = rng.uniform(0.1, 0.6)
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return build_graph(names, edges)


class TestAlgorithmAgreement:
    def test_reachability_matches_enumeration_on_random_dags(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_dag(rng, max_nodes=6)
            names = list(g.nodes)
            for x, y in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert is_d_separated(g, x, y, set(z)) == (
                            is_d_separated_by_enumeration(g, x, y, set(z))
                        ), (g.edges, x, y, z)

    def test_reachability_matches_enumeration_on_reference_graph(self):
        g = reference_graph()
        rng = random.Random(17)
        for x, y in itertools.combinations(g.nodes, 2):
            rest = [v for v in g.nodes if v not in (x, y)]
            conditioning = [set()]
            conditioning += [
                adj.adjustment_set
                for adj in CANONICAL_ADJUSTMENTS
                if not adj.adjustment_set & {x, y}
            ]
            conditioning += [
                {v for v in rest if rng.random() < p} for p in (0.15, 0.3, 0.5)
            ]
            for z in conditioning:
                assert is_d_separated(g, x, y, z) == (
                    is_d_separated_by_enumeration(g, x, y, z)
                ), (x, y, z)

    def test_descendants_match_brute_force_reachability(self):
        g = reference_graph()

        def reaches(a, b):
            frontier = {a}
            while frontier:
                if b in frontier:
                    return True
                frontier = {w for v, w in g.edges if v in frontier}
            return False

        for v in g.nodes:
            expected = {w for w in g.nodes if w != v and reaches(v, w)}
            assert g.descendants(v) == expected, v

    def test_long_chain(self):
        names = [f"v{i}" for i in range(200)]
        g = build_graph(names, list(zip(names, names[1:])))
        assert is_d_separated(g, "v0", "v199", {"v100"})
        assert not is_d_separated(g, "v0", "v199", set())
        assert g.descendants("v0") == set(names[1:])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_dag(rng)
        names = list(g.nodes)
        x, y = rng.sample(names, 2)
        z = {v for v in names if v not in (x, y) and rng.random() < 0.4}
        assert is_d_separated(g, x, y, z) == is_d_separated(g, y, x, z)


class TestBackdoor:
    def test_canonical_triples_pass(self):
        g = reference_graph()
        for adj in CANONICAL_ADJUSTMENTS:
            assert satisfies_backdoor(g, adj.treatment, adj.outcome, adj.adjustment_set)

    def test_utt_and_soc_printed_sets_pass_alone(self):
        g = reference_graph()
        assert satisfies_backdoor(g, "utterance", "O_utt", {"pattern", "KBT", "SOC_so"})
        assert satisfies_backdoor(g, "SO_hC", "O_soc", {"SOC_so"})

    def test_poc_stratify_set_alone_insufficient(self):
        # the pattern variable is carried by the matching design; without it
        # the open path through the cloze side defeats the utterance-only set
        g = reference_graph()
        assert not satisfies_backdoor(g, "PO_hC", "O_poc", {"utterance"})
        assert satisfies_backdoor(g, "PO_hC", "O_poc", {"utterance", "pattern"})

    def test_descendant_in_z_fails(self):
        g = reference_graph()
        assert not satisfies_backdoor(g, "utterance", "O_utt", {"dataset"})

    def test_backdoor_implies_no_descendants_random(self):
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            g = random_dag(rng)
            names = list(g.nodes)
            t, o = rng.sample(names, 2)
            z = {v for v in names if v not in (t, o) and rng.random() < 0.4}
            if satisfies_backdoor(g, t, o, z):
                assert not z & g.descendants(t)
            checked += 1

    def test_same_treatment_outcome_rejected(self):
        with pytest.raises(OverlappingSetsError):
            satisfies_backdoor(chain_graph(), "A", "A", set())

    def test_canonical_adjustments_mapping(self):
        adj = {a.hypothesis: a for a in CANONICAL_ADJUSTMENTS}
        assert [a.hypothesis for a in CANONICAL_ADJUSTMENTS] == ["utt", "poc", "soc"]
        assert adj["soc"].treatment == "SO_hC"
        assert adj["utt"].stratify == ("pattern", "KBT", "SOC_so")


class TestEnumerationHelpers:
    def test_paths_on_diamond(self):
        g = build_graph("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        paths = {p for p in enumerate_paths(g, "A", "D")}
        assert ("A", "B", "D") in paths
        assert ("A", "C", "D") in paths
