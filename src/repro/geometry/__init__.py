"""Planar geometry primitives used across the library."""

from .hpwl import hpwl_by_net, hpwl_from_arrays, net_hpwl, pin_index, total_hpwl
from .point import BBox, Point, manhattan
from .positions import position_arrays, position_dict
from .steiner import net_steiner_wl, rectilinear_mst, steiner_wirelength

__all__ = [
    "BBox",
    "Point",
    "manhattan",
    "position_arrays",
    "position_dict",
    "net_hpwl",
    "total_hpwl",
    "hpwl_from_arrays",
    "pin_index",
    "hpwl_by_net",
    "rectilinear_mst",
    "steiner_wirelength",
    "net_steiner_wl",
]
