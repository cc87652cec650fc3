"""Atom structures of chromatic algebras and set composition over them.

Atoms are indexed 0..n with index 0 reserved for the identity atom; proper
colour i has index i.  Sets of atoms are plain integer bitmasks, so
composition and the associativity scan stay cheap.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import product

MAX_WITNESSES = 16

IDENTITY = 0


def _require_int(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def checked_tuple(name: str, fields: str):
    """A namedtuple base for a type that checks its fields in ``__new__``.

    ``_make``, and so ``_replace``, build through the subclass's
    ``__new__`` instead of ``tuple.__new__``, so no path skips the checks.
    Each subclass sets ``__slots__ = ()`` to stay read-only.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Signature(checked_tuple("Signature", "s_set n")):
    """A chromatic algebra selector: consistent triangle types S and the
    number n of proper colours."""

    __slots__ = ()

    def __new__(cls, s_set, n):
        s = tuple(s_set)  # checked first: a set merges 2.0 into 2
        for t in s:
            _require_int(t, "triangle type")
        _require_int(n, "the number of colours n")
        s_set = frozenset(s)
        if not s_set <= {1, 2, 3}:
            raise ValueError("triangle types must lie in {1,2,3}")
        if n < 1:
            raise ValueError("need at least one proper colour")
        return super().__new__(cls, s_set, n)

    @property
    def atom_count(self) -> int:
        return self.n + 1

    def __str__(self):
        s = ",".join(str(x) for x in sorted(self.s_set)) or "∅"
        return f"E_{self.n + 1}^{{{s}}}"


@cache
def required_multisets(sig) -> tuple:
    """Sorted proper-colour multisets a qualitative representation must
    realise."""
    return tuple((a, b, c) for a in range(1, sig.n + 1)
                 for b in range(a, sig.n + 1) for c in range(b, sig.n + 1)
                 if len({a, b, c}) in sig.s_set)


@cache
def triangle_table(sig) -> tuple:
    """``table[a][b][c]`` is 0 when a triangle with side colours a, b, c
    has a forbidden type (or a colour is 0), and otherwise ``k + 1`` for
    its sorted colour multiset ``required_multisets(sig)[k]``."""
    ids = {t: k + 1 for k, t in enumerate(required_multisets(sig))}
    colours = range(sig.n + 1)
    return tuple(tuple(tuple(ids.get(tuple(sorted((a, b, c))), 0)
                             for c in colours) for b in colours)
                 for a in colours)


@cache
def witness_pairs(sig) -> tuple:
    """``pairs[c]`` lists the proper colours (a, b), a-major, with (a, b, c)
    consistent: the pairs a strong representation must witness on every
    edge of colour c.  ``pairs[0]`` is empty."""
    table = triangle_table(sig)
    colours = range(1, sig.n + 1)
    return tuple(tuple((a, b) for a in colours for b in colours
                       if table[a][b][c])
                 for c in range(sig.n + 1))


class AtomStructure(checked_tuple("AtomStructure",
                                  "converse identity triples")):
    """Atoms 0..atom_count-1 with converse, identity set and
    consistent-triple set; ``atom_count`` is the length of ``converse``.

    Immutable; ``triples`` membership is O(1), which is what composition
    and the closure checks lean on.
    """

    __slots__ = ()

    def __new__(cls, converse, identity, triples):
        converse = tuple(converse)
        identity = frozenset(identity)
        triples = frozenset(map(tuple, triples))
        atom_count = len(converse)
        for a in range(atom_count):
            if not 0 <= converse[a] < atom_count:
                raise ValueError(f"converse of atom {a} is no atom")
            if converse[converse[a]] != a:
                raise ValueError(f"converse is not self-inverse at atom {a}")
        for e in identity:
            if not 0 <= e < atom_count:
                raise ValueError(f"identity atom {e} is no atom")
        for t in triples:
            if len(t) != 3 or not all(0 <= a < atom_count for a in t):
                raise ValueError(f"triple {t} out of range")
        return super().__new__(cls, converse, identity, triples)

    @property
    def atom_count(self) -> int:
        return len(self.converse)

    def conv(self, a: int) -> int:
        if not 0 <= a < self.atom_count:
            raise ValueError(f"atom {a} not in structure")
        return self.converse[a]


def peircean_transforms(t, structure: AtomStructure) -> set:
    """The six triangle traverses of a triple, duplicates collapsed."""
    a, b, c = t
    v = structure.conv
    return {(a, b, c), (v(a), c, b), (c, v(b), a),
            (b, v(c), v(a)), (v(c), a, v(b)), (v(b), v(a), v(c))}


def chromatic_atoms(sig: Signature) -> AtomStructure:
    """Atom structure of the chromatic algebra for a signature.

    The identity atom composes as a unit; a proper triple is consistent
    exactly when its number of distinct colours lies in S, as
    ``triangle_table`` records.  Identity triples are stored together with
    their Peircean transforms.
    """
    atoms = range(sig.atom_count)
    table = triangle_table(sig)
    triples = set()
    for b in atoms:
        triples.update({(IDENTITY, b, b), (b, IDENTITY, b), (b, b, IDENTITY)})
    for a, b, c in product(range(1, sig.atom_count), repeat=3):
        if table[a][b][c]:
            triples.add((a, b, c))
    return AtomStructure(atoms, {IDENTITY}, triples)


AtomStructureReport = namedtuple(
    "AtomStructureReport", "valid identity_violations closure_violations "
    "identity_total closure_total", defaults=([], [], 0, 0))


def check_na_atom_structure(structure: AtomStructure) -> AtomStructureReport:
    """Check the two atom-structure conditions, with witnesses on failure.

    Identity law: b = c iff some identity atom e has (e,b,c) consistent.
    Closure: the consistent triples are closed under Peircean transforms.
    """
    atoms = range(structure.atom_count)
    identity = [(b, c) for b in atoms for c in atoms
                if any((e, b, c) in structure.triples
                       for e in structure.identity) != (b == c)]
    closure = [t for t in structure.triples
               if peircean_transforms(t, structure) - structure.triples]
    return AtomStructureReport(valid=not (identity or closure),
                               identity_violations=identity[:MAX_WITNESSES],
                               closure_violations=closure[:MAX_WITNESSES],
                               identity_total=len(identity),
                               closure_total=len(closure))


def compose(structure: AtomStructure, a_mask: int, b_mask: int) -> int:
    """Complex-algebra composition of two atom sets (bitmasks)."""
    out = 0
    for s, r, u in structure.triples:
        if a_mask >> s & 1 and b_mask >> r & 1:
            out |= 1 << u
    return out


def is_associative(structure: AtomStructure):
    """Whether set composition is associative; returns (flag, witness).

    Checking singleton atom triples suffices because composition
    distributes over union.  The witness is an atom triple (a, b, c) with
    ({a};{b});{c} != {a};({b};{c}), or None.
    """
    if not check_na_atom_structure(structure).valid:
        raise ValueError("not a nonassociative-algebra atom structure")
    atoms = range(structure.atom_count)
    pair = {}
    for a in atoms:
        for b in atoms:
            pair[(a, b)] = compose(structure, 1 << a, 1 << b)
    for a, b, c in product(atoms, repeat=3):
        left = compose(structure, pair[(a, b)], 1 << c)
        right = compose(structure, 1 << a, pair[(b, c)])
        if left != right:
            return False, (a, b, c)
    return True, None
