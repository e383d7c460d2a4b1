"""Half-perimeter wirelength (HPWL) estimation.

HPWL is the standard placement wirelength model: the length of a net is the
half-perimeter of the bounding box of its pins.  The paper's "signal WL"
columns are HPWL sums over all signal nets.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .point import Point


def net_hpwl(pins: Sequence[Point]) -> float:
    """HPWL of a single net given its pin locations.

    Nets with fewer than two pins have zero wirelength.
    """
    if len(pins) < 2:
        return 0.0
    xs = [p.x for p in pins]
    ys = [p.y for p in pins]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl(nets: Iterable[Sequence[Point]]) -> float:
    """Sum of HPWL over a collection of nets."""
    return sum(net_hpwl(pins) for pins in nets)


def pin_index(
    net_members: Iterable[Sequence[int]],
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.intp]]:
    """CSR pin index ``(ptr, pins)``: net ``k``'s pins are
    ``pins[ptr[k]:ptr[k + 1]]``, indices into the coordinate arrays."""
    ptr = [0]
    pins: list[int] = []
    for members in net_members:
        pins.extend(members)
        ptr.append(len(pins))
    return np.asarray(ptr, dtype=np.int64), np.asarray(pins, dtype=np.intp)


def hpwl_from_arrays(
    x: npt.NDArray[np.float64],
    y: npt.NDArray[np.float64],
    ptr: npt.NDArray[np.int64],
    pins: npt.NDArray[np.intp],
) -> float:
    """Total HPWL over the nets of a CSR pin index (see :func:`pin_index`).

    Bit-identical to summing :func:`net_hpwl` net by net: each net's
    extent is ``(max - min) + (max - min)`` as there, nets with fewer than
    two pins add 0.0, and the per-net values are added in net order by
    a sequential fold (``np.sum`` is pairwise, and the built-in ``sum``
    is compensated from Python 3.12 on; either would change the float).
    """
    counts = np.diff(ptr)
    nonempty = np.flatnonzero(counts > 0)
    if nonempty.size == 0:
        return 0.0
    # reduceat over the start of every non-empty net: an empty net
    # covers no pins, so dropping it leaves every segment intact.
    starts = ptr[nonempty]
    px = x[pins]
    py = y[pins]
    span = np.zeros(counts.size)
    multi = counts[nonempty] >= 2
    span[nonempty[multi]] = (
        np.maximum.reduceat(px, starts)[multi]
        - np.minimum.reduceat(px, starts)[multi]
    ) + (
        np.maximum.reduceat(py, starts)[multi]
        - np.minimum.reduceat(py, starts)[multi]
    )
    total = 0.0
    for value in span.tolist():
        total += value
    return total


def hpwl_by_net(
    positions: Mapping[str, Point],
    nets: Mapping[str, Sequence[str]],
) -> dict[str, float]:
    """Per-net HPWL for nets given as ``{net_name: [cell_name, ...]}``.

    Cells missing from ``positions`` are ignored; a net whose pins all lack
    positions contributes zero.
    """
    out: dict[str, float] = {}
    for net_name, members in nets.items():
        pins = [positions[m] for m in members if m in positions]
        out[net_name] = net_hpwl(pins)
    return out
