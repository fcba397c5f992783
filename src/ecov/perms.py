"""Cycle-notation parsing and formatting of permutations on 0-based points.

Cycle notation in files and messages is 1-based, matching the usual
convention for permutation group data; in-memory points are 0-based.
"""
from __future__ import annotations

import re

from .errors import CycleNotationError

__all__ = [
    "Permutation",
    "parse_cycles",
    "format_cycles",
]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection of {0, ..., degree-1}, stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images!r}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r})"


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-based cycle notation like ``(1,2,3)(4,5)``.

    Whitespace between or inside cycles is ignored.  ``()`` denotes the
    identity.  The degree defaults to the largest point mentioned.
    """
    stripped = text.strip()
    if not stripped:
        raise CycleNotationError("empty permutation text")
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise CycleNotationError(f"stray text outside cycles in {text!r}")
    cycles: list[list[int]] = []
    top = 0
    for match in _CYCLE_RE.finditer(stripped):
        inner = match.group(1).strip()
        if not inner:
            continue
        points = []
        for tok in re.split(r"[,\s]+", inner):
            if not tok:
                continue
            try:
                p = int(tok)
            except ValueError:
                raise CycleNotationError(f"bad point {tok!r} in {text!r}") from None
            if p < 1:
                raise CycleNotationError(f"points are 1-based, got {p} in {text!r}")
            points.append(p - 1)
        if len(set(points)) != len(points):
            raise CycleNotationError(f"repeated point inside a cycle in {text!r}")
        cycles.append(points)
        top = max(top, max(points) + 1)
    if degree is not None:
        if degree < top:
            raise CycleNotationError(f"degree {degree} too small for {text!r}")
        top = degree
    images = list(range(top))
    seen: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p in seen:
                raise CycleNotationError(f"point {p + 1} appears in two cycles in {text!r}")
            seen.add(p)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def format_cycles(perm: Permutation) -> str:
    """Render in 1-based cycle notation; the identity renders as ``()``."""
    seen = [False] * perm.degree
    parts = []
    for start in range(perm.degree):
        if seen[start] or perm.images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm.images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm.images[nxt]
        parts.append("(" + ",".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"
