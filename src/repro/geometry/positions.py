"""Placements as coordinate arrays, and their name-keyed boundary forms.

The Fig. 3 flow keeps a placement as two float64 arrays indexed like a
fixed name sequence (``list(circuit)`` order).  These helpers convert at
the edges: :func:`position_arrays` reads a ``{name: Point}`` mapping and
:func:`position_dict` writes one.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .point import Point

_F64 = npt.NDArray[np.float64]


def position_arrays(
    names: Sequence[str], positions: Mapping[str, Point]
) -> tuple[_F64, _F64]:
    """``(x, y)`` indexed like ``names``; a name without a position sits
    at the origin."""
    xs = np.zeros(len(names))
    ys = np.zeros(len(names))
    get = positions.get
    for i, name in enumerate(names):
        p = get(name)
        if p is not None:
            xs[i] = p.x
            ys[i] = p.y
    return xs, ys


def position_dict(
    names: Sequence[str], x: _F64, y: _F64
) -> dict[str, Point]:
    """``{name: Point}`` in ``names`` order."""
    return dict(zip(names, map(Point, x.tolist(), y.tolist())))

