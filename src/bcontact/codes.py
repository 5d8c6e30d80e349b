"""The format of canonical codes, shared by the leaf peel and the generator.

A region graph's canonical code (``region_graph.canonical_code``) is put
together from the AHU codes of its vertices: each vertex's code is
``(``, its tag by sign and genus (``_TAGS``), the sorted codes hanging
from it, and ``)``.  A tree's code is ``T`` and its sorted core codes
(``_tree_codes``); a unicyclic graph's is ``C``, the cycle length and
the least rotation or reflection of its core codes along the cycle
(``_cycle_codes``).  Negating every sign exchanges ``+`` and ``-`` in
the core codes (``_SWAP_SIGNS``), and the core is ordered again.

The leaf peel (``region_graph``) codes a graph read from input, and the
generator (``enumeration``) codes its skeletons from their level
sequences; both assemble their codes here, so that neither has to load
the other.
"""

from __future__ import annotations

# Tags by (sign, genus); a valid graph has no other pairs.
_TAGS = {(1, 0): "+0", (1, 1): "+1", (-1, 0): "-0", (-1, 1): "-1"}
_SWAP_SIGNS = str.maketrans("+-", "-+")


def _least_rotation(seq: list[str]) -> int:
    """Start of the lexicographically least rotation of ``seq``, in linear
    time (Shiloach, "Fast canonization of circular strings", 1981): two
    starts are compared entry by entry; after k equal entries the one at
    the larger entry loses, as do the k starts after it, and it moves past
    them.  When k reaches the length, the two rotations are equal."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _min_rotation(seq: list[str]) -> tuple[str, ...]:
    """The least of all rotations of ``seq`` and of its reverse."""
    reverse = seq[::-1]
    i, j = _least_rotation(seq), _least_rotation(reverse)
    return min(tuple(seq[i:] + seq[:i]), tuple(reverse[j:] + reverse[:j]))


def _tree_codes(core) -> tuple[str, str]:
    """``T`` and a tree's sorted core codes, as tagged and with signs negated."""
    codes = sorted(core)
    swapped = sorted([code.translate(_SWAP_SIGNS) for code in codes])
    return "T" + "".join(codes), "T" + "".join(swapped)


def _cycle_codes(cycle: list[str]) -> tuple[str, str]:
    """``C``, the cycle length and the least rotation or reflection of a
    unicyclic graph's core codes in walk order, as tagged and with signs
    negated."""
    swapped = [code.translate(_SWAP_SIGNS) for code in cycle]
    prefix = f"C{len(cycle)}"
    return prefix + "".join(_min_rotation(cycle)), prefix + "".join(_min_rotation(swapped))
