"""Dependence vectors and dependence-vector sets.

A dependence vector for a nest of size ``n`` is an ``n``-tuple of
:class:`~repro.deps.entry.DepEntry` values.  ``Tuples(d)`` is the
Cartesian product of the entries' integer sets; ``Tuples(D)`` is the
union over a set of vectors (Section 3.1).

The legality test (Section 3.2) asks whether ``Tuples(T(D))`` contains a
lexicographically negative integer tuple; :meth:`DepVector.can_be_lex_negative`
answers that for one vector by scanning for a position whose entry can be
negative while all earlier entries can simultaneously be zero (entries are
independent, so "simultaneously" is just conjunction).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence, Tuple, Union

from repro.deps.entry import DepEntry


EntryLike = Union[int, str, DepEntry]


class DepVector:
    """An immutable tuple of dependence entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[EntryLike]):
        object.__setattr__(
            self, "entries", tuple(DepEntry.of(e) for e in entries))
        if not self.entries:
            raise ValueError("dependence vector must have at least one entry")

    def __setattr__(self, name, value):
        raise AttributeError("DepVector is immutable")

    # The guarded __setattr__ breaks pickle's default slot-state
    # restoration (vectors cross process boundaries in parallel search).
    def __getstate__(self):
        return (self.entries,)

    def __setstate__(self, state):
        object.__setattr__(self, "entries", state[0])

    # -- structure ---------------------------------------------------------

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> DepEntry:
        return self.entries[k]

    def entry(self, k: int) -> DepEntry:
        """1-based accessor matching the paper's loop numbering."""
        return self.entries[k - 1]

    # -- lexicographic properties -------------------------------------------

    def can_be_lex_negative(self) -> bool:
        """True iff ``Tuples(d)`` contains a lexicographically negative tuple.

        A tuple is lex-negative iff its first nonzero element is negative;
        such a tuple exists iff for some position *i* every earlier entry
        can be zero and entry *i* can be negative.
        """
        for i, e in enumerate(self.entries):
            if e.can_be_negative():
                if all(prev.can_be_zero() for prev in self.entries[:i]):
                    return True
        return False

    def can_be_lex_positive(self) -> bool:
        """True iff ``Tuples(d)`` contains a lexicographically positive tuple."""
        for i, e in enumerate(self.entries):
            if e.can_be_positive():
                if all(prev.can_be_zero() for prev in self.entries[:i]):
                    return True
        return False

    def is_lex_positive(self) -> bool:
        """True iff *every* tuple in ``Tuples(d)`` is lex-positive."""
        return (not self.can_be_lex_negative() and not self.can_be_zero_vector())

    def can_be_zero_vector(self) -> bool:
        return all(e.can_be_zero() for e in self.entries)

    def carried_at(self) -> int:
        """The unique 1-based level carrying every real dependence, or 0.

        Real dependences are the *lexicographically positive* members of
        ``Tuples(d)`` (a legal source ordering admits no others), so the
        query quantifies over those: the result is level ``k`` iff every
        lex-positive tuple has its first nonzero at ``k`` and the
        all-zero (loop-independent) tuple is not possible.  Returns 0
        when no level is forced (e.g. ``(0+, +)``, which can be carried
        at level 1 or 2) or when no lex-positive tuple exists at all.
        """
        forced = 0
        for i, e in enumerate(self.entries):
            if e.can_be_positive() and \
                    all(prev.can_be_zero() for prev in self.entries[:i]):
                if forced:
                    return 0  # two distinct levels possible
                forced = i + 1
        if forced and all(e.can_be_zero() for e in self.entries):
            return 0  # a loop-independent (all-zero) tuple is also possible
        return forced

    def could_be_carried_at(self, level: int) -> bool:
        """True iff some *lex-positive* tuple's first nonzero lands at
        *level* (1-based) — i.e. parallelizing that loop alone may be
        illegal.  A first nonzero that is negative belongs to a
        lexicographically negative tuple, which no legal source ordering
        produces, so it does not count."""
        i = level - 1
        e = self.entries[i]
        if not e.can_be_positive():
            return False
        return all(prev.can_be_zero() for prev in self.entries[:i])

    # -- sampling (used by property tests and the consistency checker) --------

    def sample_tuples(self, bound: int = 3, limit: int = 256) -> List[Tuple[int, ...]]:
        """A deterministic sample of concrete tuples from ``Tuples(d)``."""
        per_entry = [e.sample(bound) for e in self.entries]
        out = []
        for combo in itertools.product(*per_entry):
            out.append(tuple(combo))
            if len(out) >= limit:
                break
        return out

    def contains_tuple(self, tup: Sequence[int]) -> bool:
        if len(tup) != len(self.entries):
            return False
        return all(v in e.tuples() for v, e in zip(tup, self.entries))

    # -- misc -------------------------------------------------------------------

    def coarsen(self) -> "DepVector":
        return DepVector([e.coarsen() for e in self.entries])

    def expand_summary(self) -> List["DepVector"]:
        """Expand summary directions into equivalent non-summary vectors.

        Section 3.1 recommends expanding ``0+``, ``0-``, ``!0`` and ``*``
        into ``{0, +}``, ``{0, -}``, ``{-, +}`` and ``{-, 0, +}``
        respectively for best precision.
        """
        alternatives: List[List[DepEntry]] = []
        for e in self.entries:
            if e.is_distance:
                alternatives.append([e])
                continue
            options: List[DepEntry] = []
            if e.can_be_negative():
                options.append(DepEntry.direction("-"))
            if e.can_be_zero():
                options.append(DepEntry.distance(0))
            if e.can_be_positive():
                options.append(DepEntry.direction("+"))
            alternatives.append(options)
        return [DepVector(combo) for combo in itertools.product(*alternatives)]

    def __eq__(self, other):
        return isinstance(other, DepVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"DepVector({self})"

    def __str__(self):
        return "(" + ", ".join(e.code for e in self.entries) + ")"


def depv(*entries: EntryLike) -> DepVector:
    """Shorthand constructor: ``depv(1, '-', '0+')``."""
    return DepVector(entries)


class DepSet:
    """An ordered set of dependence vectors of equal length."""

    __slots__ = ("vectors", "__weakref__")

    def __init__(self, vectors: Iterable[Union[DepVector, Sequence[EntryLike]]]):
        seen = []
        for v in vectors:
            vec = v if isinstance(v, DepVector) else DepVector(v)
            if vec not in seen:
                seen.append(vec)
        object.__setattr__(self, "vectors", tuple(seen))
        lengths = {len(v) for v in self.vectors}
        if len(lengths) > 1:
            raise ValueError(f"mixed vector lengths in dependence set: {lengths}")

    def __setattr__(self, name, value):
        raise AttributeError("DepSet is immutable")

    # See DepVector: explicit state protocol for pickling.
    def __getstate__(self):
        return (self.vectors,)

    def __setstate__(self, state):
        object.__setattr__(self, "vectors", state[0])

    @property
    def depth(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, vec: DepVector) -> bool:
        return vec in self.vectors

    def is_empty(self) -> bool:
        return not self.vectors

    def can_be_lex_negative(self) -> bool:
        """The dependence-vector legality test over the whole set."""
        return any(v.can_be_lex_negative() for v in self.vectors)

    def expand_summary(self) -> "DepSet":
        out: List[DepVector] = []
        for v in self.vectors:
            out.extend(v.expand_summary())
        return DepSet(out)

    def union(self, other: "DepSet") -> "DepSet":
        return DepSet(tuple(self.vectors) + tuple(other.vectors))

    def __eq__(self, other):
        return isinstance(other, DepSet) and set(self.vectors) == set(other.vectors)

    def __hash__(self):
        return hash(frozenset(self.vectors))

    def __repr__(self):
        return f"DepSet({{{', '.join(str(v) for v in self.vectors)}}})"

    def __str__(self):
        return "{" + ", ".join(str(v) for v in self.vectors) + "}"


def depset(*vectors) -> DepSet:
    """Shorthand: ``depset((1, '-'), (0, '+'))``."""
    return DepSet(vectors)
