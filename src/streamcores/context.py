"""Item universe, node descriptions, and the extent/intent operators.

Patterns are itemsets encoded as integer bitmasks over a fixed item
universe; bit i stands for the universe's i-th item. Inclusion of
patterns is bitmask inclusion, which keeps the mining loops cheap.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Tuple

from .stream import StreamGraph, TimeNodeSet

Pattern = int
CoreFn = Callable[[TimeNodeSet], TimeNodeSet]


class ItemUniverse:
    """Fixed, ordered set of items; the order drives enumeration."""

    __slots__ = ("_items", "_index")

    def __init__(self, items: Iterable[str]) -> None:
        self._items = tuple(items)
        self._index = {name: i for i, name in enumerate(self._items)}
        if len(self._index) != len(self._items):
            raise ValueError("duplicate items in universe")

    @property
    def items(self) -> Tuple[str, ...]:
        return self._items

    @property
    def full_mask(self) -> Pattern:
        return (1 << len(self._items)) - 1

    def __len__(self) -> int:
        return len(self._items)

    def bit(self, name: str) -> Pattern:
        try:
            return 1 << self._index[name]
        except KeyError:
            raise KeyError(f"unknown item {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> Pattern:
        mask = 0
        for name in names:
            mask |= self.bit(name)
        return mask

    def items_of(self, mask: Pattern) -> Tuple[str, ...]:
        """The items of `mask`, a pattern over this universe, in universe order.

        Only the set bits are walked, lowest first, not every item.
        """
        items = self._items
        out = []
        while mask:
            low = mask & -mask
            out.append(items[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def __repr__(self) -> str:
        return f"ItemUniverse({', '.join(self._items)})"


class AttributeContext:
    """Per-node descriptions over a shared item universe."""

    __slots__ = ("universe", "_desc")

    def __init__(self, universe: ItemUniverse, descriptions: Mapping[str, Pattern]) -> None:
        self.universe = universe
        full = universe.full_mask
        for node, mask in descriptions.items():
            if mask & ~full:
                raise ValueError(f"description of {node!r} uses items outside the universe")
        self._desc: Dict[str, Pattern] = dict(descriptions)

    def description(self, node: str) -> Pattern:
        """The node's itemset mask; nodes without a row are empty."""
        return self._desc.get(node, 0)

    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._desc))

    def __repr__(self) -> str:
        return f"AttributeContext(|I|={len(self.universe)}, |V|={len(self._desc)})"


def extent(pattern: Pattern, ctx: AttributeContext, stream: StreamGraph) -> TimeNodeSet:
    """All presence of the nodes whose description contains the pattern."""
    # a stream's nodes are the nodes with nonempty presence
    return TimeNodeSet._raw({v: stream.presence(v) for v in stream.nodes
                             if ctx.description(v) & pattern == pattern})


def intent(support: TimeNodeSet, ctx: AttributeContext) -> Pattern:
    """Most specific pattern shared by every node carrying the support.

    Nodes enter the intersection only through positive-measure presence;
    an empty support yields the full universe.
    """
    mask = ctx.universe.full_mask
    for v in support.nodes():
        mask &= ctx.description(v)
        if not mask:
            break
    return mask


def closure(
    pattern: Pattern, ctx: AttributeContext, stream: StreamGraph, core: CoreFn
) -> Tuple[Pattern, TimeNodeSet]:
    """Closed pattern and core support set reached from `pattern`."""
    support = core(extent(pattern, ctx, stream))
    return intent(support, ctx), support
