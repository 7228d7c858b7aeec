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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class LatticeWindow:
    """Inclusive cell range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window: lo={self.lo} > hi={self.hi}")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def expand(self, margin: int) -> "LatticeWindow":
        return LatticeWindow(self.lo - margin, self.hi + margin)


@dataclass(frozen=True)
class _LatticeState:
    """Shared representation: value window plus offset, canonically trimmed."""

    values: tuple[int, ...] = ()
    offset: int = 0

    def __post_init__(self):
        # operator.index accepts integers only: 2.7 raises instead of becoming 2
        values = tuple(map(operator.index, self.values))
        self._validate(values)
        offset = operator.index(self.offset)
        lead = 0
        while lead < len(values) and values[lead] == 0:
            lead += 1
        if lead == len(values):
            values, offset = (), 0
        else:
            trail = len(values)
            while values[trail - 1] == 0:
                trail -= 1
            values = values[lead:trail]
            offset += lead
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offset", offset)

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
        """Cell values over the inclusive range [lo, hi]."""
        return [self.value_at(x) for x in range(lo, hi + 1)]

    def total(self) -> int:
        return sum(self.values)

    def shift(self, a: int):
        """Left shift by ``a``: the result at x holds the old value at x+a."""
        return type(self)(self.values, self.offset - a)

    def cells(self) -> Iterator[tuple[int, int]]:
        """(cell, value) pairs over the stored window."""
        for i, v in enumerate(self.values):
            yield self.offset + i, v

    def __str__(self) -> str:
        return to_literal(self)


@dataclass(frozen=True)
class Configuration(_LatticeState):
    """Finite-support map from lattice cells to non-negative granule counts."""

    @staticmethod
    def _validate(values: tuple[int, ...]) -> None:
        for v in values:
            if v < 0:
                raise NegativeValue(f"granule count {v} is negative")


@dataclass(frozen=True)
class HeightProfile(_LatticeState):
    """Finite-support signed integer sequence.

    Primarily the height-difference transform of a configuration, but also
    the carrier for any rule whose outputs may go negative.  Trimming drops
    only zero cells, so every negative cell of such an output stays visible.
    """

    def negative_cells(self) -> tuple[tuple[int, int], ...]:
        """(cell, value) pairs where the profile is negative."""
        return tuple((x, v) for x, v in self.cells() if v < 0)


def normalize(raw_values: Iterable[int], offset: int = 0) -> Configuration:
    """Canonical trimmed configuration for the given cell values.

    Leading/trailing zeros are dropped and the offset adjusted accordingly;
    an all-zero input yields the zero configuration.
    """
    return Configuration(tuple(raw_values), offset)


def total_granules(c: _LatticeState) -> int:
    """Sum of all cell values."""
    return c.total()


def height_profile(c: Configuration) -> HeightProfile:
    """Differences h(x) = c(x) - c(x+1) between successive columns.

    For a finite-support configuration the entries telescope to zero.
    """
    if c.is_zero:
        return HeightProfile()
    lo, hi = c.support.lo, c.support.hi
    diffs = [c.value_at(x) - c.value_at(x + 1) for x in range(lo - 1, hi + 1)]
    return HeightProfile(diffs, lo - 1)


def shift(state: _LatticeState, a: int):
    """Translation operator: value of result at x equals input value at x+a."""
    return state.shift(a)


def translation_equivalent(c1: _LatticeState, c2: _LatticeState) -> bool:
    """True iff the two states coincide up to a lattice translation."""
    return c1.values == c2.values


def is_gk_stable(c: Configuration) -> bool:
    """No critical jump anywhere: c(x) - c(x+1) <= 1 for every x."""
    if c.is_zero:
        return True
    lo, hi = c.support.lo, c.support.hi
    return all(c.value_at(x) - c.value_at(x + 1) <= 1 for x in range(lo, hi + 1))


def is_fp_stable(c: Configuration) -> bool:
    """Every cell holds 0 or 1 granules (Boolean configuration)."""
    return all(v in (0, 1) for v in c.values)


def is_perfect_support(c: Configuration) -> bool:
    """Nonzero with no internal gaps: every cell of the support is occupied."""
    return bool(c.values) and all(v > 0 for v in c.values)


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
                raise MultipleOrigins("second origin marker '|'", pos + piece.rindex("|"))
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
        value = int(stripped)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", position) from None
    if not signed and value < 0:
        raise NegativeValue(f"negative entry {value} in configuration literal")
    return value


def to_literal(state: _LatticeState, window: LatticeWindow | None = None) -> str:
    """Render a state as a literal, optionally padded to an explicit window.

    The default window is the support extended to include cell 0 (so the
    origin marker always has an anchor).  The zero state renders as "0".
    """
    if window is None:
        if state.is_zero:
            return "0"
        window = state.support
    elif state.support is not None and (
        state.support.lo < window.lo or state.support.hi > window.hi
    ):
        raise ValueError("window does not cover the support")
    # cell 0 anchors the origin marker, so the rendered range always includes it
    lo, hi = min(window.lo, 0), max(window.hi, 0)
    left = [str(state.value_at(x)) for x in range(lo, 0)]
    right = [str(state.value_at(x)) for x in range(0, hi + 1)]
    if left:
        return ",".join(left) + "|" + ",".join(right)
    return ",".join(right)
