"""Cycle-notation parsing of permutations on 0-based points.

Cycle notation in files is 1-based, matching the usual convention for
permutation group data; in-memory points are 0-based.
"""
from __future__ import annotations

import re

from .errors import CycleNotationError

__all__ = ["parse_cycles"]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> tuple[int, ...]:
    """Parse 1-based cycle notation like ``(1,2,3)(4,5)`` into its images.

    Whitespace between or inside cycles is ignored.  ``()`` denotes the
    identity.  The degree is the largest point mentioned.  No point may
    repeat, inside a cycle or across cycles, so the images are a bijection.
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
    images = list(range(top))
    seen: set[int] = set()
    for cyc in cycles:
        for p in cyc:
            if p in seen:
                raise CycleNotationError(f"point {p + 1} appears in two cycles in {text!r}")
            seen.add(p)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return tuple(images)
