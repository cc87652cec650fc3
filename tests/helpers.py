"""Helpers shared by the test modules and ``tools/canonical_timings.py``.

It imports no pytest, so a tool can load it without the test framework.
"""

import random

from chromarep.algebra import Signature
from chromarep.colouring import EdgeColouring

# every S, as a sorted tuple
ALL_S = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


def sig(s, n):
    return Signature(frozenset(s), n)


def relabel(col, rng):
    """The colouring under a seeded vertex and colour permutation."""
    vertices, colours = list(range(col.m)), list(range(1, col.n + 1))
    rng.shuffle(vertices)
    rng.shuffle(colours)
    return EdgeColouring.from_function(
        col.m, col.n,
        lambda i, j: colours[col.colour(vertices[i], vertices[j]) - 1])


def random2(m, seed):
    """K_m with each edge coloured 1 or 2 by ``random.Random(seed)``: a
    rigid input, whose code search cannot lean on automorphisms."""
    rng = random.Random(seed)
    return EdgeColouring(m, 2, tuple(rng.randint(1, 2)
                                     for _ in range(m * (m - 1) // 2)))
