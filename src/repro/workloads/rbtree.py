"""RB-Tree: the transactional red-black tree of PMDK's examples
(Table 4).

A classic red-black insertion (recolor + rotations) with persistent
parent pointers, every mutation inside an undo-log transaction.  The
synthetic faults each omit the ``TX_ADD`` of one specific node role in
the fix-up procedure, which exercises the detector on multi-object
transactional updates (a rotation touches three nodes plus possibly the
root pointer).
"""

from __future__ import annotations

from repro.pmdk import ObjectPool, Ptr, Struct, U64, pmem
from repro.workloads._txutil import NullAdder, TxAdder
from repro.workloads.base import (
    TraversalGuard, Workload, deterministic_keys,
)

LAYOUT = "xf-rbtree"

RED = 0
BLACK = 1


class RBNode(Struct):
    parent = Ptr()
    left = Ptr()
    right = Ptr()
    color = U64()
    key = U64()
    value = U64()


class RBRoot(Struct):
    root_ptr = Ptr()
    count = U64()


class RBTree:
    """Persistent red-black tree operations (insert, lookup, walk)."""

    def __init__(self, pool, faults=frozenset()):
        self.pool = pool
        self.memory = pool.memory
        self.faults = faults

    @property
    def root(self):
        return self.pool.root

    def _node(self, address):
        return RBNode(self.memory, address)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key, value):
        pool = self.pool
        root = self.root
        with pool.transaction() as tx:
            adder = TxAdder(tx, self.faults)
            if "dup_add_node" in self.faults:
                adder.force_duplicate(root)
            # Standard BST descent.
            parent = None
            guard = TraversalGuard("rbtree insert descent")
            cursor = root.root_ptr
            while cursor:
                guard.step()
                node = self._node(cursor)
                if key == node.key:
                    adder.add(node, "skip_add_update_value")
                    node.value = value
                    return
                parent = node
                cursor = node.left if key < node.key else node.right
            fresh = pool.alloc(RBNode)
            adder.add(fresh, "skip_add_new_node")
            fresh.key = key
            fresh.value = value
            fresh.left = 0
            fresh.right = 0
            fresh.color = RED
            fresh.parent = parent.address if parent else 0
            if parent is None:
                adder.add_field(root, "root_ptr", "skip_add_root_update")
                root.root_ptr = fresh.address
            else:
                adder.add(parent, "skip_add_link_parent")
                if key < parent.key:
                    parent.left = fresh.address
                else:
                    parent.right = fresh.address
            adder.add_field(root, "count", "skip_add_count")
            root.count = root.count + 1
            if "skip_fixup_adds" in self.faults:
                # BUG: the entire fix-up procedure logs nothing.
                self._fixup(NullAdder(), fresh)
            else:
                self._fixup(adder, fresh)
        if "value_outside_tx" in self.faults:
            # BUG: a raw value write after the transaction ended.
            fresh_view = self._node(fresh.address)
            self.memory.store(
                fresh_view.field_addr("value"),
                int(value).to_bytes(8, "little"),
            )

    def _fixup(self, adder, node):
        """Restore red-black invariants after inserting ``node``."""
        root = self.root
        guard = TraversalGuard("rbtree fixup climb")
        while node.parent:
            guard.step()
            parent = self._node(node.parent)
            if parent.color != RED:
                break
            grand = self._node(parent.parent)
            parent_is_left = grand.left == parent.address
            uncle_ptr = grand.right if parent_is_left else grand.left
            uncle = self._node(uncle_ptr) if uncle_ptr else None
            if uncle is not None and uncle.color == RED:
                # Case 1: recolor and continue from the grandparent.
                adder.add(parent, "skip_add_recolor_parent")
                parent.color = BLACK
                adder.add(uncle, "skip_add_recolor_uncle")
                uncle.color = BLACK
                adder.add(grand, "skip_add_recolor_grand")
                grand.color = RED
                node = grand
                continue
            # Cases 2/3: rotations.
            node_is_left = parent.left == node.address
            if parent_is_left and not node_is_left:
                self._rotate_left(adder, parent)
                # The old parent is now the lower node of the pair.
                node = parent
                parent = self._node(node.parent)
            elif not parent_is_left and node_is_left:
                self._rotate_right(adder, parent)
                node = parent
                parent = self._node(node.parent)
            adder.add(parent, "skip_add_recolor_parent")
            parent.color = BLACK
            adder.add(grand, "skip_add_recolor_grand")
            grand.color = RED
            if parent_is_left:
                self._rotate_right(adder, grand)
            else:
                self._rotate_left(adder, grand)
        root_node = self._node(root.root_ptr)
        if root_node.color != BLACK:
            adder.add(root_node, "skip_add_recolor_grand")
            root_node.color = BLACK

    def _rotate_left(self, adder, pivot):
        """Left-rotate around ``pivot``: its right child takes its
        place."""
        child = self._node(pivot.right)
        adder.add(pivot, "skip_add_rotate_pivot")
        adder.add(child, "skip_add_rotate_child")
        pivot.right = child.left
        if child.left:
            inner = self._node(child.left)
            adder.add(inner, "skip_add_rotate_child")
            inner.parent = pivot.address
        self._replace_in_parent(adder, pivot, child)
        child.left = pivot.address
        pivot.parent = child.address

    def _rotate_right(self, adder, pivot):
        child = self._node(pivot.left)
        adder.add(pivot, "skip_add_rotate_pivot")
        adder.add(child, "skip_add_rotate_child")
        pivot.left = child.right
        if child.right:
            inner = self._node(child.right)
            adder.add(inner, "skip_add_rotate_child")
            inner.parent = pivot.address
        self._replace_in_parent(adder, pivot, child)
        child.right = pivot.address
        pivot.parent = child.address

    def _replace_in_parent(self, adder, old, new):
        root = self.root
        new.parent = old.parent
        if old.parent == 0:
            adder.add_field(root, "root_ptr", "skip_add_root_update")
            root.root_ptr = new.address
            return
        parent = self._node(old.parent)
        adder.add(parent, "skip_add_link_parent")
        if parent.left == old.address:
            parent.left = new.address
        else:
            parent.right = new.address

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key):
        guard = TraversalGuard("rbtree lookup descent")
        cursor = self.root.root_ptr
        while cursor:
            guard.step()
            node = self._node(cursor)
            if key == node.key:
                return node.value
            cursor = node.left if key < node.key else node.right
        return None

    def items(self):
        pairs = []
        if self.root.root_ptr:
            self._walk(self.root.root_ptr, pairs)
        return pairs

    def _walk(self, pointer, pairs):
        node = self._node(pointer)
        if node.left:
            self._walk(node.left, pairs)
        pairs.append((node.key, node.value))
        if node.right:
            self._walk(node.right, pairs)

    def count(self):
        return self.root.count

    def audit(self):
        """Read every persistent field of every node (including colors
        and parent links), the way a recovery-time validator would.
        Returns the number of nodes visited."""
        guard = TraversalGuard("rbtree audit walk")
        visited = 0
        stack = [self.root.root_ptr] if self.root.root_ptr else []
        while stack:
            guard.step()
            node = self._node(stack.pop())
            _ = (node.key, node.value, node.color, node.parent)
            visited += 1
            if node.left:
                stack.append(node.left)
            if node.right:
                stack.append(node.right)
        return visited

    def check(self):
        """Red-black invariants: BST order, root black, no red-red
        edges, equal black heights."""
        pairs = self.items()
        keys = [key for key, _value in pairs]
        assert keys == sorted(keys), "BST order violated"
        pointer = self.root.root_ptr
        if pointer == 0:
            return True
        root_node = self._node(pointer)
        assert root_node.color == BLACK, "root must be black"
        self._check_subtree(pointer)
        return True

    def _check_subtree(self, pointer):
        """Returns the black height; asserts invariants."""
        if pointer == 0:
            return 1
        node = self._node(pointer)
        if node.color == RED:
            for child_ptr in (node.left, node.right):
                if child_ptr:
                    assert self._node(child_ptr).color == BLACK, (
                        "red node with red child"
                    )
        left_height = self._check_subtree(node.left)
        right_height = self._check_subtree(node.right)
        assert left_height == right_height, "black height mismatch"
        return left_height + (1 if node.color == BLACK else 0)


class RBTreeWorkload(Workload):
    """Table 4's RB-Tree as a detectable workload.

    Keys are inserted in ascending order by default so that rotations
    and recolorings deterministically occur for small test sizes.
    """

    name = "rbtree"

    FAULTS = {
        "skip_add_new_node": ("R", "insert: new node not TX_ADDed"),
        "skip_add_link_parent": (
            "R", "insert/rotate: parent link not TX_ADDed",
        ),
        "skip_add_recolor_parent": (
            "R", "fixup: recolored parent not TX_ADDed",
        ),
        "skip_add_recolor_uncle": (
            "R", "fixup: recolored uncle not TX_ADDed",
        ),
        "skip_add_recolor_grand": (
            "R", "fixup: recolored grandparent not TX_ADDed",
        ),
        # Note: rotation pivot/child nodes are always already logged by
        # the link or recolor that preceded the rotation, so "skip the
        # rotation add" is not a distinct reachable bug; the umbrella
        # skip_fixup_adds below covers unlogged rotations instead.
        "skip_fixup_adds": (
            "R", "fixup: the entire fix-up procedure logs nothing",
        ),
        "value_outside_tx": (
            "R", "insert: raw value write after the transaction ended",
        ),
        "skip_add_root_update": (
            "R", "rotation: root pointer not TX_ADDed",
        ),
        "skip_add_count": ("R", "insert: count not TX_ADDed"),
        "skip_add_update_value": ("R", "update: value not TX_ADDed"),
        "dup_add_node": ("P", "insert: root struct TX_ADDed twice"),
    }

    def __init__(self, faults=(), init_size=0, test_size=1,
                 ascending=True, **options):
        super().__init__(faults, init_size, test_size, **options)
        self.ascending = ascending

    def _keys(self):
        total = self.init_size + self.test_size + 1
        if self.ascending:
            return list(range(1, total + 1))
        return deterministic_keys(total, seed=13)

    def setup(self, ctx):
        pool = ObjectPool.create(
            ctx.memory, "rbtree", LAYOUT, size=self.pool_size,
            root_cls=RBRoot,
        )
        root = pool.root
        root.root_ptr = 0
        root.count = 0
        pmem.persist(ctx.memory, root.address, RBRoot.SIZE)
        tree = RBTree(pool, self.faults)
        for key in self._keys()[: self.init_size]:
            tree.insert(key, key ^ 0xFF)

    def pre_failure(self, ctx):
        pool = ObjectPool.open(ctx.memory, "rbtree", LAYOUT, RBRoot)
        tree = RBTree(pool, self.faults)
        keys = self._keys()
        test_keys = keys[self.init_size:self.init_size + self.test_size]
        for key in test_keys:
            tree.insert(key, key ^ 0xAB)
        if test_keys:
            tree.insert(test_keys[0], 0xDEAD)  # update path

    def post_failure(self, ctx):
        pool = ObjectPool.open(ctx.memory, "rbtree", LAYOUT, RBRoot)
        tree = RBTree(pool, self.faults)
        tree.audit()
        tree.count()
        tree.insert(self._keys()[-1], 0xBEEF)
