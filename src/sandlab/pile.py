"""Finite-support states on the one-dimensional integer lattice.

A state stores a contiguous window of cell values together with the lattice
index of the first stored cell; every cell outside the window is implicitly
zero.  Two flavours exist: :class:`Configuration` (non-negative granule
counts) and :class:`HeightProfile` (signed values, e.g. height differences
between adjacent columns).  Both are immutable and kept in canonical trimmed
form -- empty, or with nonzero first and last entries -- so that structural
equality coincides with equality of the underlying cell maps.  That makes
states directly usable as dictionary keys when deduplicating search spaces.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator


class NegativeValue(ValueError):
    """A negative granule count was supplied where counts must be >= 0."""


class ParseError(ValueError):
    """Malformed configuration literal.  ``position`` is the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (byte {position})")
        self.position = position


class MultipleOrigins(ParseError):
    """A configuration literal contained more than one '|' origin marker."""


class _Frozen:
    """Slotted immutable record: a constructor sets each slot once, then assignment raises.

    ``_fields`` names the constructor's arguments.  Two records of one class are
    equal when those slots are; they are what ``hash`` covers, ``repr`` shows and
    pickle passes back to the constructor.  Other slots hold what it derives.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)
        # each slot's descriptor sets it directly, past the raising __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values) -> None:
        """Set each of the class's own slots once, in ``__slots__`` order."""
        for setter, value in zip(self._setters, values, strict=True):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({shown})"


class LatticeWindow(_Frozen):
    """Inclusive cell range [lo, hi]."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty window: lo={lo} > hi={hi}")
        self._init(lo, hi)


class _LatticeState(_Frozen):
    """Shared representation: value window plus offset, canonically trimmed.

    Slotted and immutable.  The constructor canonicalizes once and stores
    ``hash((values, offset))``, so a dict or set lookup hashes no tuple.
    """

    __slots__ = ("values", "offset", "_hash")
    _fields = ("values", "offset")
    values: tuple[int, ...]
    offset: int

    def __new__(cls, values: Iterable[int] = (), offset: int = 0):
        # operator.index accepts integers only: 2.7 raises instead of becoming 2
        return cls._of_ints(map(operator.index, values), operator.index(offset))

    @classmethod
    def _of_ints(cls, values: Iterable[int], offset: int):
        """A state of ints an engine already holds: checked, trimmed and hashed, not re-indexed."""
        values = tuple(values)
        cls._validate(values)
        lead, trail = 0, len(values)
        while lead < trail and values[lead] == 0:
            lead += 1
        while lead < trail and values[trail - 1] == 0:
            trail -= 1
        values, offset = values[lead:trail], offset + lead if lead < trail else 0
        state = object.__new__(cls)
        _set_values(state, values)
        _set_offset(state, offset)
        _set_hash(state, hash((values, offset)))
        return state

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        same = self._hash == other._hash
        return same and self.offset == other.offset and self.values == other.values

    @staticmethod
    def _validate(values: tuple[int, ...]) -> None:
        pass

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def support(self) -> LatticeWindow | None:
        """Window from the first to the last nonzero cell; None when zero."""
        if not self.values:
            return None
        return LatticeWindow(self.offset, self.offset + len(self.values) - 1)

    def value_at(self, x: int) -> int:
        i = x - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def window_values(self, lo: int, hi: int) -> list[int]:
        """Cell values over the inclusive range [lo, hi], as one zero-padded slice."""
        i, j, n = lo - self.offset, hi + 1 - self.offset, len(self.values)
        # stored indices i..j-1: zeros left of 0, the stored slice, zeros from n on
        left, right = min(j, 0) - min(i, 0), max(j, n) - max(i, n)
        return [0] * left + list(self.values[max(i, 0) : max(j, 0)]) + [0] * right

    def total(self) -> int:
        return sum(self.values)

    def shift(self, a: int):
        """Left shift by ``a``: the result at x holds the old value at x+a."""
        return self._of_ints(self.values, self.offset - operator.index(a))

    def cells(self) -> Iterator[tuple[int, int]]:
        """(cell, value) pairs over the stored window."""
        for i, v in enumerate(self.values):
            yield self.offset + i, v

    def __str__(self) -> str:
        return to_literal(self)


# the slot setters of every state: a subclass adds no slot, so its own _setters are empty
_set_values, _set_offset, _set_hash = _LatticeState._setters


class Configuration(_LatticeState):
    """Finite-support map from lattice cells to non-negative granule counts."""

    __slots__ = ()

    @staticmethod
    def _validate(values: tuple[int, ...]) -> None:
        for v in values:
            if v < 0:
                raise NegativeValue(f"granule count {v} is negative")


class HeightProfile(_LatticeState):
    """Finite-support signed integer sequence.

    Primarily the height-difference transform of a configuration, but also
    the carrier for any rule whose outputs may go negative.  Trimming drops
    only zero cells, so every negative cell of such an output stays visible.
    """

    __slots__ = ()

    def negative_cells(self) -> tuple[tuple[int, int], ...]:
        """(cell, value) pairs where the profile is negative."""
        return tuple((x, v) for x, v in self.cells() if v < 0)


def height_profile(c: Configuration) -> HeightProfile:
    """Differences h(x) = c(x) - c(x+1) between successive columns.

    For a finite-support configuration the entries telescope to zero.
    """
    padded = (0, *c.values, 0)
    return HeightProfile._of_ints([a - b for a, b in zip(padded, padded[1:])], c.offset - 1)


def is_gk_stable(c: Configuration) -> bool:
    """No critical jump anywhere: c(x) - c(x+1) <= 1 for every x."""
    return all(a - b <= 1 for a, b in zip(c.values, (*c.values[1:], 0)))


def is_fp_stable(c: Configuration) -> bool:
    """Every cell holds 0 or 1 granules (Boolean configuration).

    This is fixedness under the default fp rule only, whose threshold is 2.
    A state is fixed under an fp rule exactly when every cell is below its
    threshold sum(D): ``5,5,0,5`` is fixed under
    ``fp_rule((-2, -1, 1, 2), (1, 2, 2, 1))``, where it is 6, yet is not Boolean.
    """
    return all(v in (0, 1) for v in c.values)


def parse_literal(text: str) -> Configuration:
    """Parse a configuration literal.

    Grammar: comma-separated decimal integers with at most one ``|`` marker;
    the value immediately after ``|`` sits at lattice cell 0, values before it
    occupy ..., -2, -1.  Without ``|`` the first value sits at cell 0.
    """
    values, offset = _parse_cells(text, signed=False)
    return Configuration(values, offset)


def parse_height_literal(text: str) -> HeightProfile:
    """Parse a signed profile literal (same grammar, negative entries allowed)."""
    values, offset = _parse_cells(text, signed=True)
    return HeightProfile(values, offset)


def _parse_cells(text: str, signed: bool) -> tuple[list[int], int]:
    before: list[int] = []
    after: list[int] = []
    origin_at: int | None = None
    pos = 0
    for piece in text.split(","):
        if "|" in piece:
            bar = pos + piece.index("|")
            if origin_at is not None:
                raise MultipleOrigins("second origin marker '|'", bar)
            if piece.count("|") > 1:
                raise MultipleOrigins("second origin marker '|'", text.index("|", bar + 1))
            left, right = piece.split("|")
            if left:
                before.append(_parse_int(left, pos, signed))
            if not right.strip():
                raise ParseError("missing value after origin marker '|'", bar + 1)
            after.append(_parse_int(right, bar + 1, signed))
            origin_at = bar
        else:
            target = before if origin_at is None else after
            target.append(_parse_int(piece, pos, signed))
        pos += len(piece) + 1
    if origin_at is None:
        return before, 0
    return before + after, -len(before)


def _parse_int(token: str, position: int, signed: bool) -> int:
    stripped = token.strip()
    if not stripped:
        raise ParseError("empty value", position)
    try:
        value = _decimal(stripped)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", position) from None
    if not signed and value < 0:
        raise NegativeValue(f"negative entry {value} in configuration literal")
    return value


def _decimal(text: str) -> int:
    """``int(text)`` for an optional ASCII sign and ASCII digits; ValueError for anything else.

    ``int`` alone also reads ``_`` separators and non-ASCII digits: ``1_0``, ``٣``.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def to_literal(state: _LatticeState, window: LatticeWindow | None = None) -> str:
    """Render a state as a literal, optionally padded to an explicit window.

    The default window is the support extended to include cell 0 (so the
    origin marker always has an anchor).  The zero state renders as "0".
    """
    values, offset = state.values, state.offset
    if window is None and not values:
        return "0"
    lo, hi = (offset, offset + len(values) - 1) if window is None else (window.lo, window.hi)
    if values and (offset < lo or offset + len(values) - 1 > hi):
        raise ValueError("window does not cover the support")
    # cell 0 anchors the origin marker, so the rendered range always includes it
    lo, hi = min(lo, 0), max(hi, 0)
    cells = ["0"] * (offset - lo) + list(map(str, values)) + ["0"] * (hi + 1 - offset - len(values))
    if lo:
        return ",".join(cells[:-lo]) + "|" + ",".join(cells[-lo:])
    return ",".join(cells)
