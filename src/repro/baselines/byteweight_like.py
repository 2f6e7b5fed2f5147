"""ByteWeight-style learned detector (paper §VII-B related work).

ByteWeight [6] learns a weighted prefix tree over function-start byte
sequences: each tree node holds the empirical probability that a prefix
begins a function. Classification walks the tree along the bytes at a
candidate address and thresholds the deepest matched node's weight.

The paper (citing Koo et al. [26]) notes that such learned models "are
prone to errors when handling unseen binary patterns as they are
largely dependent on the training dataset" — unlike FunSeeker, which
needs no training. The cross-configuration benchmark reproduces exactly
that: a tree trained on one compiler/architecture generalizes poorly to
another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import FunctionDetector, text_section
from repro.elf.parser import ELFFile
from repro.x86.sweep import linear_sweep

#: Maximum prefix depth learned (ByteWeight's default tree depth is 10).
MAX_DEPTH = 10


@dataclass
class _Node:
    positive: int = 0
    total: int = 0
    children: dict[int, "_Node"] = field(default_factory=dict)

    @property
    def weight(self) -> float:
        return self.positive / self.total if self.total else 0.0


@dataclass
class PrefixTree:
    """Weighted prefix tree over function-start byte sequences."""

    root: _Node = field(default_factory=_Node)
    depth: int = MAX_DEPTH

    def add(self, sample: bytes, is_start: bool) -> None:
        node = self.root
        node.total += 1
        node.positive += is_start
        for byte in sample[: self.depth]:
            node = node.children.setdefault(byte, _Node())
            node.total += 1
            node.positive += is_start

    def score(self, sample: bytes) -> float:
        """Weight of the deepest matching node."""
        node = self.root
        weight = node.weight
        for byte in sample[: self.depth]:
            child = node.children.get(byte)
            if child is None:
                break
            node = child
            weight = node.weight
        return weight

    @property
    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


def train_prefix_tree(
    training_set: list[tuple[bytes, int, set[int]]],
    *,
    depth: int = MAX_DEPTH,
) -> PrefixTree:
    """Learn a prefix tree from labeled binaries.

    ``training_set`` holds ``(text_bytes, base_addr, function_starts)``
    triples. Positive samples are the bytes at each function start;
    negatives are the other instruction-start offsets discovered by
    linear sweep (ByteWeight's construction).
    """
    tree = PrefixTree(depth=depth)
    for data, base, starts in training_set:
        # Samples carry their own byte patterns; the mode only affects
        # the negative-offset enumeration marginally.
        for insn in linear_sweep(data, base, 64):
            offset = insn.addr - base
            tree.add(data[offset : offset + depth], insn.addr in starts)
    return tree


class ByteWeightLikeDetector(FunctionDetector):
    """Classify instruction-start offsets with a learned prefix tree."""

    name = "byteweight"

    #: Output depends on the trained tree and threshold, which the
    #: content-addressed cache key cannot see — never cache results.
    cacheable = False

    def __init__(self, tree: PrefixTree, threshold: float = 0.5) -> None:
        self.tree = tree
        self.threshold = threshold

    def _detect(self, elf: ELFFile) -> set[int]:
        txt = text_section(elf)
        if txt is None or not txt.data:
            return set()
        bits = 64 if elf.is64 else 32
        data = txt.data
        base = txt.sh_addr
        depth = self.tree.depth
        found: set[int] = set()
        for insn in linear_sweep(data, base, bits):
            offset = insn.addr - base
            if self.tree.score(data[offset : offset + depth]) \
                    >= self.threshold:
                found.add(insn.addr)
        return found
