#!/usr/bin/env python3
"""Global routing of a placed design: routed wirelength vs HPWL.

Places a benchmark, routes every signal net over a G-cell grid at several
edge capacities, and reports routed wirelength, overflow, and peak
congestion.  Shows the classic behaviour: generous capacity routes at
~1.1x HPWL; tight capacity forces congestion-driven detours.

Run:  python examples/routing_demo.py [circuit]      (default: s9234)
"""

import sys
import time

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import signal_wirelength
from repro.netlist import PROFILES, generate_named
from repro.placement import QuadraticPlacer, legalize, region_for_circuit
from repro.routing import RoutingGrid, route_design


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s9234"
    tech = DEFAULT_TECHNOLOGY
    circuit = generate_named(name)
    region = region_for_circuit(circuit, tech)
    placer = QuadraticPlacer(circuit, region)
    legal = legalize(*placer.place(), placer.movable, region)
    positions = dict(placer.fixed_positions)
    positions.update(legal.positions)
    hpwl = signal_wirelength(circuit, positions)

    print(f"=== {name}: {len(circuit.nets)} nets, die "
          f"{region.bbox.width:.0f} x {region.bbox.height:.0f} um, "
          f"HPWL {hpwl:,.0f} um ===\n")
    print(f"{'capacity':>9} {'routed WL (um)':>15} {'vs HPWL':>8} "
          f"{'overflow':>9} {'peak congestion':>16} {'time':>7}")
    for capacity in (8, 16, 32, 64, 128):
        grid = RoutingGrid(region.bbox, gcell_size=15.0, capacity=capacity)
        t0 = time.time()
        result = route_design(circuit, positions, grid)
        print(f"{capacity:9d} {result.total_wirelength:15,.0f} "
              f"{result.total_wirelength / hpwl:8.2f} "
              f"{result.overflow:9d} {result.max_congestion:16.2f} "
              f"{time.time() - t0:6.1f}s")

    print("\ntight capacities overflow and detour; once edges are "
          "plentiful the router settles near the HPWL lower bound.")


if __name__ == "__main__":
    main()
