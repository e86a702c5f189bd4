"""Functional tests for the tree structures (no failure injection):
they must behave like ordinary maps and keep their invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraversalLimitError
from repro.pm.memory import PersistentMemory
from repro.pmdk import ObjectPool, pmem
from repro.trace.recorder import TraceRecorder
from repro.workloads.btree import BTree, BTreeRoot, LAYOUT as BT_LAYOUT
from repro.workloads.ctree import CTree, CTreeRoot, LAYOUT as CT_LAYOUT
from repro.workloads.rbtree import RBTree, RBRoot, LAYOUT as RB_LAYOUT


def fresh_memory():
    return PersistentMemory(TraceRecorder(), capture_ips=False)


def make_btree():
    memory = fresh_memory()
    pool = ObjectPool.create(memory, "bt", BT_LAYOUT, root_cls=BTreeRoot)
    root = pool.root
    root.root_ptr = 0
    root.count = 0
    pmem.persist(memory, root.address, BTreeRoot.SIZE)
    return BTree(pool)


def make_ctree():
    memory = fresh_memory()
    pool = ObjectPool.create(memory, "ct", CT_LAYOUT, root_cls=CTreeRoot)
    root = pool.root
    root.root_ptr = 0
    root.count = 0
    pmem.persist(memory, root.address, CTreeRoot.SIZE)
    return CTree(pool)


def make_rbtree():
    memory = fresh_memory()
    pool = ObjectPool.create(memory, "rt", RB_LAYOUT, root_cls=RBRoot)
    root = pool.root
    root.root_ptr = 0
    root.count = 0
    pmem.persist(memory, root.address, RBRoot.SIZE)
    return RBTree(pool)


@pytest.mark.parametrize("factory", [make_btree, make_ctree, make_rbtree],
                         ids=["btree", "ctree", "rbtree"])
class TestCommonMapBehaviour:
    def test_empty_lookup(self, factory):
        tree = factory()
        assert tree.get(42) is None
        assert tree.count() == 0
        assert tree.items() == []

    def test_insert_and_get(self, factory):
        tree = factory()
        tree.insert(5, 50)
        tree.insert(3, 30)
        tree.insert(8, 80)
        assert tree.get(5) == 50
        assert tree.get(3) == 30
        assert tree.get(8) == 80
        assert tree.get(99) is None
        assert tree.count() == 3

    def test_update_existing_key(self, factory):
        tree = factory()
        tree.insert(5, 50)
        tree.insert(5, 55)
        assert tree.get(5) == 55
        assert tree.count() == 1

    def test_items_sorted(self, factory):
        tree = factory()
        for key in [9, 1, 7, 3, 5]:
            tree.insert(key, key * 10)
        assert tree.items() == [
            (1, 10), (3, 30), (5, 50), (7, 70), (9, 90)
        ]

    def test_many_ascending_inserts(self, factory):
        tree = factory()
        for key in range(1, 40):
            tree.insert(key, key)
        assert tree.count() == 39
        assert [k for k, _v in tree.items()] == list(range(1, 40))
        tree.check()


class TestBTreeSpecific:
    def test_split_produces_internal_root(self):
        tree = make_btree()
        for key in range(1, 6):
            tree.insert(key, key)
        from repro.workloads.btree import BTreeNode

        root_node = BTreeNode(tree.memory, tree.root.root_ptr)
        assert root_node.is_leaf == 0
        tree.check()

    def test_remove_from_leaf(self):
        tree = make_btree()
        for key in [2, 4, 6]:
            tree.insert(key, key)
        assert tree.remove(4) is True
        assert tree.get(4) is None
        assert tree.count() == 2
        assert tree.remove(99) is False

    def test_remove_from_empty(self):
        tree = make_btree()
        assert tree.remove(1) is False


class TestCTreeSpecific:
    def test_crit_bit_invariant(self):
        tree = make_ctree()
        for key in [0b1000, 0b1001, 0b0100, 0b1100, 0b0001]:
            tree.insert(key, key)
        tree.check()

    def test_remove(self):
        tree = make_ctree()
        for key in [1, 2, 3, 4]:
            tree.insert(key, key)
        assert tree.remove(2) is True
        assert tree.get(2) is None
        assert tree.get(3) == 3
        assert tree.count() == 3
        assert tree.remove(2) is False
        tree.check()

    def test_remove_last_element(self):
        tree = make_ctree()
        tree.insert(7, 70)
        assert tree.remove(7) is True
        assert tree.items() == []
        assert tree.root.root_ptr == 0


class TestRBTreeSpecific:
    def test_invariants_random_order(self):
        tree = make_rbtree()
        for key in [13, 8, 17, 1, 11, 15, 25, 6, 22, 27]:
            tree.insert(key, key)
        tree.check()

    def test_audit_visits_all(self):
        tree = make_rbtree()
        for key in range(10):
            tree.insert(key, key)
        assert tree.audit() == 10

    def test_audit_stops_on_cyclic_child_pointer(self):
        """A crash image can leave a child pointer looping back onto an
        ancestor; the audit walk must raise instead of walking (and
        growing its stack) forever."""
        tree = make_rbtree()
        for key in range(3):
            tree.insert(key, key)
        root = tree._node(tree.root.root_ptr)
        tree._node(root.right).left = root.address
        with pytest.raises(TraversalLimitError):
            tree.audit()


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 200), st.integers(0, 10**6)), max_size=60,
))
@pytest.mark.parametrize("factory", [make_btree, make_ctree, make_rbtree],
                         ids=["btree", "ctree", "rbtree"])
def test_trees_match_dict_model(factory, pairs):
    tree = factory()
    model = {}
    for key, value in pairs:
        tree.insert(key, value)
        model[key] = value
    assert tree.items() == sorted(model.items())
    assert tree.count() == len(model)
    for key in list(model)[:10]:
        assert tree.get(key) == model[key]
    tree.check()
