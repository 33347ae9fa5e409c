"""Unit tests for the fat-tree topology and routing."""

import sys
import threading

import pytest

from repro.machine import FatTree, MachineConfig, fat_tree_for
from repro.machine.params import FAT_TREE_ARITY


@pytest.fixture
def tree32():
    return FatTree(MachineConfig(32))


class TestTopology:
    def test_leaf_links_exist_for_every_node(self, tree32):
        for node in range(32):
            assert ("up", 1, node) in tree32.links
            assert ("down", 1, node) in tree32.links

    def test_leaf_link_capacity_is_cluster_bandwidth(self, tree32):
        assert tree32.capacity(("up", 1, 0)) == 20e6

    def test_level2_capacity_aggregates_four_leaves(self, tree32):
        # 4 leaves x 10 MB/s through level 2.
        assert tree32.capacity(("up", 2, 0)) == 40e6

    def test_level3_capacity_aggregates_sixteen_leaves(self, tree32):
        # 16 leaves x 5 MB/s through the root.
        assert tree32.capacity(("up", 3, 0)) == 80e6

    def test_up_and_down_are_separate_resources(self, tree32):
        assert ("up", 2, 1) != ("down", 2, 1)
        assert ("down", 2, 1) in tree32.links

    def test_link_count_grows_with_machine(self):
        small = FatTree(MachineConfig(4))
        big = FatTree(MachineConfig(64))
        assert len(big.links) > len(small.links)


class TestPaths:
    def test_intra_cluster_path_is_two_links(self, tree32):
        path = tree32.path(0, 1)
        assert path == (("up", 1, 0), ("down", 1, 1))

    def test_level2_path_shape(self, tree32):
        path = tree32.path(0, 4)
        assert path == (
            ("up", 1, 0),
            ("up", 2, 0),
            ("down", 2, 1),
            ("down", 1, 4),
        )

    def test_root_path_is_up_over_down(self, tree32):
        path = tree32.path(0, 31)
        kinds = [p[0] for p in path]
        assert kinds == ["up", "up", "up", "down", "down", "down"]
        levels = [p[1] for p in path]
        assert levels == [1, 2, 3, 3, 2, 1]

    def test_path_endpoints(self, tree32):
        path = tree32.path(5, 27)
        assert path[0] == ("up", 1, 5)
        assert path[-1] == ("down", 1, 27)

    def test_self_path_rejected(self, tree32):
        with pytest.raises(ValueError):
            tree32.path(3, 3)

    def test_all_path_links_exist(self, tree32):
        for src in range(0, 32, 7):
            for dst in range(32):
                if src == dst:
                    continue
                for link in tree32.path(src, dst):
                    assert link in tree32.links

    def test_reverse_path_mirrors(self, tree32):
        fwd = tree32.path(2, 19)
        rev = tree32.path(19, 2)
        assert len(fwd) == len(rev)
        # The reverse path uses the mirrored links in opposite order.
        assert [(k, l) for k, l, _ in fwd] == [
            ({"up": "down", "down": "up"}[k], l) for k, l, _ in reversed(rev)
        ]


class TestRateCaps:
    def test_message_rate_cap_matches_level(self, tree32):
        assert tree32.message_rate_cap(0, 1) == 20e6
        assert tree32.message_rate_cap(0, 4) == 10e6
        assert tree32.message_rate_cap(0, 16) == 5e6

    def test_subtree_leaf_counts(self, tree32):
        assert tree32.subtree_paths_through(("up", 1, 0)) == 1
        assert tree32.subtree_paths_through(("up", 2, 0)) == FAT_TREE_ARITY
        assert tree32.subtree_paths_through(("up", 3, 0)) == FAT_TREE_ARITY**2


class TestCache:
    def test_fat_tree_for_reuses_instances(self):
        cfg = MachineConfig(16)
        assert fat_tree_for(cfg) is fat_tree_for(MachineConfig(16))

    def test_different_params_get_different_trees(self):
        cfg_a = MachineConfig(16)
        cfg_b = MachineConfig(16, cfg_a.params.scaled(bw_level3=4e6))
        assert fat_tree_for(cfg_a) is not fat_tree_for(cfg_b)


def route(tree, src, dst):
    """Dense link indices of ``tree.path(src, dst)``, read from the
    flat route table through :meth:`FatTree.route_slot`."""
    off, length = tree.route_slot(src, dst)
    return tree.route_buffer[0][off : off + length].tolist()


class TestRouteTable:
    def test_path_indices_match_path(self, tree32):
        index = tree32.link_index
        for src in range(32):
            for dst in range(32):
                if src != dst:
                    want = [index[l] for l in tree32.path(src, dst)]
                    assert route(tree32, src, dst) == want

    def test_concurrent_first_use_appends_every_route_once(self):
        # Trees are shared across runs (fat_tree_for), so two threads
        # may append routes at once: no route may land on another's
        # slice, and growth must keep every published route.
        tree = FatTree(MachineConfig(64))
        pairs = [(s, d) for s in range(64) for d in range(64) if s != d]
        errors = []

        def worker(seed):
            try:
                order = pairs[seed::8] + pairs
                for src, dst in order:
                    tree.route_slot(src, dst)
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        index = tree.link_index
        spans = sorted(tree.route_slots.values())
        assert sum(length for _, length in spans) == tree._route_used
        assert all(a + n == b for (a, n), (b, _) in zip(spans, spans[1:]))
        for src, dst in pairs:
            want = [index[l] for l in tree.path(src, dst)]
            assert route(tree, src, dst) == want
