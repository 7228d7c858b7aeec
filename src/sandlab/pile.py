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
from typing import Iterator


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
        """Cell values over the inclusive range [lo, hi], as one zero-padded slice."""
        i, j, n = lo - self.offset, hi + 1 - self.offset, len(self.values)
        # stored indices i..j-1: zeros left of 0, the stored slice, zeros from n on
        left, right = min(j, 0) - min(i, 0), max(j, n) - max(i, n)
        return [0] * left + list(self.values[max(i, 0) : max(j, 0)]) + [0] * right

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


def height_profile(c: Configuration) -> HeightProfile:
    """Differences h(x) = c(x) - c(x+1) between successive columns.

    For a finite-support configuration the entries telescope to zero.
    """
    padded = (0, *c.values, 0)
    return HeightProfile([a - b for a, b in zip(padded, padded[1:])], c.offset - 1)


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
    lo = min(window.lo, 0)
    cells = [str(v) for v in state.window_values(lo, max(window.hi, 0))]
    if lo:
        return ",".join(cells[:-lo]) + "|" + ",".join(cells[-lo:])
    return ",".join(cells)
