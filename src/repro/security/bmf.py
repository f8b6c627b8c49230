"""Bonsai Merkle Forests (BMF): BMT height-reduction (Freij et al. [19]).

BMF splits the single Bonsai Merkle Tree into a *forest* of subtrees whose
roots are pinned in a small on-chip, battery/register-backed root cache.
An update whose subtree root is cached stops at that root — it recomputes
only the levels *below* the cut — so the effective update height drops from
the full tree height to the cut height.  Two variants from the paper's
Fig. 9 study:

* **DBMF** (dynamic BMF): subtree roots are created/cached on demand; the
  paper models SecPB+DBMF with an effective height of **2** levels.
* **SBMF** (static BMF): a static partition; effective height **5** levels.

On a root-cache miss the update must re-anchor the subtree: it pays the
full remaining path to the global root (and the evicted subtree root is
likewise folded back).  Functionally, integrity is anchored by the global
root register as before — the forest only changes *when* the upper levels
are recomputed, which is exactly the timing effect the Fig. 9 experiment
measures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim.config import ROOT_DIGEST_BYTES
from .bmt import BonsaiMerkleTree, PathNode


@dataclass(frozen=True)
class ForestUpdateResult:
    """Outcome of one leaf update through the forest.

    Attributes:
        levels_hashed: number of node hashes on the update's critical path
            (the quantity that multiplies the 40-cycle hash latency).
        root_cache_hit: whether the subtree root was already pinned.
        path: interior nodes recomputed in the backing tree (functional).
    """

    levels_hashed: int
    root_cache_hit: bool
    path: List[PathNode]


class RootCache:
    """LRU cache of pinned subtree-root digests (4 KB default = 128 roots)."""

    def __init__(self, capacity_bytes: int = 4096):
        if capacity_bytes < ROOT_DIGEST_BYTES:
            raise ValueError("root cache smaller than one digest")
        self.capacity = capacity_bytes // ROOT_DIGEST_BYTES
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, subtree_index: int) -> Tuple[bool, Optional[int]]:
        """Access the root of ``subtree_index``.

        Returns:
            (hit, evicted_subtree_index)
        """
        if subtree_index in self._entries:
            self._entries.move_to_end(subtree_index)
            self.hits += 1
            return True, None
        self.misses += 1
        evicted = None
        if len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[subtree_index] = None
        return False, evicted

    def __contains__(self, subtree_index: int) -> bool:
        return subtree_index in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class MerkleForest:
    """A BMT fronted by a subtree-root cache, reducing update height.

    Args:
        tree: the full-height backing tree (functional anchor).
        cut_height: levels recomputed below a pinned subtree root — 2 for
            DBMF, 5 for SBMF in the paper's Fig. 9 configuration.
        root_cache_bytes: on-chip root cache capacity (paper: 4 KB).
    """

    def __init__(
        self,
        tree: BonsaiMerkleTree,
        cut_height: int,
        root_cache_bytes: int = 4096,
    ):
        if not 1 <= cut_height <= tree.height:
            raise ValueError(
                f"cut height {cut_height} must be within tree height "
                f"{tree.height}"
            )
        self.tree = tree
        self.cut_height = cut_height
        self.root_cache = RootCache(root_cache_bytes)
        self._subtree_leaves = tree.arity**cut_height

    def subtree_of(self, leaf_index: int) -> int:
        """Index of the forest subtree containing ``leaf_index``."""
        return leaf_index // self._subtree_leaves

    def update_leaf(self, leaf_index: int, leaf_payload: bytes) -> ForestUpdateResult:
        """Update a counter leaf through the forest.

        The backing tree is always updated fully (keeping the functional
        root correct); the *timing* cost reported reflects the forest:
        ``cut_height`` hashes on a root-cache hit, the full height plus the
        evicted subtree's fold-back on a miss.
        """
        subtree = self.subtree_of(leaf_index)
        hit, evicted = self.root_cache.touch(subtree)
        path = self.tree.update_leaf(leaf_index, leaf_payload)
        if hit:
            levels = self.cut_height
        else:
            levels = self.tree.height
            if evicted is not None:
                # Fold the evicted subtree root back into the upper tree.
                levels += self.tree.height - self.cut_height
        return ForestUpdateResult(levels, hit, path)

    def verify_leaf(self, leaf_index: int, leaf_payload: bytes) -> bool:
        """Integrity check against the global root (unchanged by BMF)."""
        return self.tree.verify_leaf(leaf_index, leaf_payload)


class ForestTimingModel:
    """Timing-only BMF model for the trace-driven simulator (Fig. 9).

    The full-tree functional anchor is unnecessary when only update
    *heights* matter; this model keeps just the root cache and maps a
    counter-page index to the number of hash levels its BMT update costs.
    The root cache is state, so one model serves one run:
    :class:`~repro.security.metadata_cache.MetadataCaches` builds it from
    ``SecurityConfig.bmf_cut`` and ``bmf_root_cache_bytes`` with the rest
    of the memory controller's metadata state, and answers per block
    through :meth:`~repro.security.metadata_cache.MetadataCaches.bmt_levels`.

    Args:
        full_height: height of the underlying BMT (paper: 8).
        cut_height: forest cut — 2 for DBMF, 5 for SBMF.
        subtree_leaf_pages: counter pages per forest subtree.
        root_cache_bytes: on-chip root cache (paper: 4 KB).
    """

    def __init__(
        self,
        full_height: int,
        cut_height: int,
        subtree_leaf_pages: Optional[int] = None,
        root_cache_bytes: int = 4096,
        arity: int = 8,
    ):
        if not 1 <= cut_height <= full_height:
            raise ValueError("cut height must be within the full height")
        self.full_height = full_height
        self.cut_height = cut_height
        self.root_cache = RootCache(root_cache_bytes)
        self._subtree_leaves = (
            subtree_leaf_pages
            if subtree_leaf_pages is not None
            else arity**cut_height
        )

    def levels(self, page_index: int) -> int:
        """Hash levels charged for updating the counter page's leaf."""
        subtree = page_index // self._subtree_leaves
        hit, evicted = self.root_cache.touch(subtree)
        if hit:
            return self.cut_height
        levels = self.full_height
        if evicted is not None:
            levels += self.full_height - self.cut_height
        return levels


def make_dbmf(tree: BonsaiMerkleTree, root_cache_bytes: int = 4096) -> MerkleForest:
    """Dynamic BMF as configured in the paper's Fig. 9 (height 2)."""
    return MerkleForest(tree, cut_height=2, root_cache_bytes=root_cache_bytes)


def make_sbmf(tree: BonsaiMerkleTree, root_cache_bytes: int = 4096) -> MerkleForest:
    """Static BMF as configured in the paper's Fig. 9 (height 5)."""
    return MerkleForest(tree, cut_height=5, root_cache_bytes=root_cache_bytes)
