"""Bonsai Merkle Tree (BMT) over counter blocks.

A Bonsai Merkle Tree [46] protects the *counters* rather than the data:
with counters fresh (tree-verified) and each data block carrying a MAC
bound to its counter, replaying stale data is detectable without a tree
over the data itself.  The root digest lives in an on-chip, non-volatile
register and never leaves the TCB.

This implementation is a sparse, fixed-height, ``arity``-ary hash tree:

* leaves are the 64-byte encodings of :class:`~repro.security.counters.CounterBlock`;
* interior nodes hash their children with position binding;
* unpopulated subtrees take precomputed "empty" digests, so the tree is
  O(written pages) in memory yet behaves as a full-height tree — every
  leaf update recomputes exactly ``height`` node hashes, the latency the
  paper puts at 8 x 40 = 320 cycles.

``update_leaf`` returns the list of recomputed (level, index) nodes so the
timing model can count hash work and the metadata cache can be charged for
node accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .prf import hash_children, keyed_hash


@dataclass(frozen=True)
class PathNode:
    """One node touched on a leaf-to-root update path."""

    level: int
    index: int


class BonsaiMerkleTree:
    """Sparse fixed-height Merkle tree with an on-chip root register.

    Level 0 is the leaves; level ``height`` is the root (index 0).  A tree
    of height *h* and arity *a* covers ``a**h`` leaves.
    """

    def __init__(self, key: bytes, height: int = 8, arity: int = 8):
        if height < 1:
            raise ValueError("BMT height must be at least 1")
        if arity < 2:
            raise ValueError("BMT arity must be at least 2")
        self._key = key
        self.height = height
        self.arity = arity
        self.capacity = arity**height
        # Sparse node storage: (level, index) -> digest.  Leaves at level 0.
        self._nodes: Dict[Tuple[int, int], bytes] = {}
        self._empty_digest: List[bytes] = self._build_empty_digests()
        self._root: bytes = self._empty_digest[height]
        self.leaf_updates = 0
        self.node_hashes = 0

    def _build_empty_digests(self) -> List[bytes]:
        """Digest of an all-empty subtree at each level."""
        digests = [keyed_hash(self._key, b"bmt-empty-leaf")]
        for level in range(1, self.height + 1):
            child = digests[level - 1]
            # Empty subtrees share one digest per level (index binding is
            # irrelevant for never-written placeholders).
            digests.append(
                hash_children(self._key, level, 0, [child] * self.arity)
            )
        return digests

    # Queries -------------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The root digest (the non-volatile on-chip register's value)."""
        return self._root

    def node_digest(self, level: int, index: int) -> bytes:
        """Digest of any node, empty subtrees included."""
        if not 0 <= level <= self.height:
            raise IndexError(f"level {level} outside tree of height {self.height}")
        return self._nodes.get((level, index), self._empty_digest[level])

    def path_of(self, leaf_index: int) -> List[PathNode]:
        """The interior nodes recomputed when ``leaf_index`` changes."""
        if not 0 <= leaf_index < self.capacity:
            raise IndexError(
                f"leaf {leaf_index} outside capacity {self.capacity}"
            )
        path = []
        index = leaf_index
        for level in range(1, self.height + 1):
            index //= self.arity
            path.append(PathNode(level, index))
        return path

    # Updates ---------------------------------------------------------------

    def _leaf_digest(self, leaf_payload: bytes) -> bytes:
        return keyed_hash(self._key, b"bmt-leaf", leaf_payload)

    def update_leaf(self, leaf_index: int, leaf_payload: bytes) -> List[PathNode]:
        """Install a new leaf payload and recompute the path to the root.

        Returns the interior nodes recomputed (``height`` of them), which
        the caller uses for latency (one hash per level) and metadata-cache
        accounting.
        """
        path = self.path_of(leaf_index)
        self._nodes[(0, leaf_index)] = self._leaf_digest(leaf_payload)
        for node in path:
            base = node.index * self.arity
            children = [
                self.node_digest(node.level - 1, base + k)
                for k in range(self.arity)
            ]
            self._nodes[(node.level, node.index)] = hash_children(
                self._key, node.level, node.index, children
            )
            self.node_hashes += 1
        self._root = self._nodes[(self.height, 0)]
        self.leaf_updates += 1
        return path

    def verify_leaf(self, leaf_index: int, leaf_payload: bytes) -> bool:
        """Check ``leaf_payload`` against the current tree and root.

        Recomputes the leaf-to-root path from stored sibling digests and
        compares against the root register, i.e. the integrity check the
        recovery observer performs on every counter block it reads.
        """
        if not 0 <= leaf_index < self.capacity:
            raise IndexError(
                f"leaf {leaf_index} outside capacity {self.capacity}"
            )
        digest = self._leaf_digest(leaf_payload)
        index = leaf_index
        for level in range(1, self.height + 1):
            parent_index = index // self.arity
            base = parent_index * self.arity
            children = []
            for k in range(self.arity):
                child_index = base + k
                if child_index == index:
                    children.append(digest)
                else:
                    children.append(self.node_digest(level - 1, child_index))
            digest = hash_children(self._key, level, parent_index, children)
            index = parent_index
        return digest == self._root

    def leaf_digest_matches(self, leaf_index: int, leaf_payload: bytes) -> bool:
        """True when ``leaf_payload`` hashes to the *stored* leaf digest.

        Used by the recovery observer to attribute a failed
        :meth:`verify_leaf`: when the payload still matches the digest the
        tree recorded at update time, the counter block itself is intact
        and the corruption sits in an interior node (or the root register);
        when it does not match, the counter block was tampered or replayed.
        """
        stored = self._nodes.get((0, leaf_index))
        return stored is not None and stored == self._leaf_digest(leaf_payload)

    # Crash checkpointing -------------------------------------------------

    def snapshot(self) -> Tuple[Dict[Tuple[int, int], bytes], bytes]:
        """Copy of (nodes, root) for crash save/restore."""
        return dict(self._nodes), self._root

    def restore(self, snapshot: Tuple[Dict[Tuple[int, int], bytes], bytes]) -> None:
        nodes, root = snapshot
        self._nodes = dict(nodes)
        self._root = root

    def corrupt_root(self, new_root: bytes) -> None:
        """Adversarial root overwrite (only for attack-model tests)."""
        self._root = new_root

    def corrupt_node(self, level: int, index: int, new_digest: bytes) -> None:
        """Adversarially overwrite one stored node digest.

        Models a physical attacker flipping bits in the PM-resident part
        of the tree (interior nodes and leaf digests live in PM; only the
        root register is on-chip).  The write bypasses all accounting.
        """
        if not 0 <= level < self.height:
            raise IndexError(
                f"level {level} is not PM-resident in a tree of height "
                f"{self.height} (the root register cannot be overwritten)"
            )
        self._nodes[(level, index)] = bytes(new_digest)
