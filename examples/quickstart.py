#!/usr/bin/env python3
"""Quickstart: run the integrated rotary-clocking flow on a small circuit.

Parses the embedded ISCAS89 s27 benchmark (to show netlist I/O), then runs
the full Fig. 3 methodology on a generated 160-cell circuit through the
class-based ``IntegratedFlow`` surface (the one that takes a live
``Circuit`` object) and prints the tapping-cost trajectory.

Run:  python examples/quickstart.py
"""

from repro import FlowOptions, IntegratedFlow
from repro.netlist import S27_BENCH, generate_circuit, parse_bench_text, small_profile


def main() -> None:
    # --- netlist I/O -----------------------------------------------------
    s27 = parse_bench_text(S27_BENCH, "s27")
    stats = s27.stats()
    print(f"parsed {stats.name}: {stats.num_cells} cells, "
          f"{stats.num_flipflops} flip-flops, {stats.num_nets} nets")

    # --- the integrated flow ---------------------------------------------
    circuit = generate_circuit(small_profile(num_cells=160, num_flipflops=24))
    result = IntegratedFlow(circuit, options=FlowOptions(ring_grid_side=2)).run()

    print(f"\ncircuit {result.circuit_name}: "
          f"{len(result.assignment.ff_names)} flip-flops on "
          f"{result.array.num_rings} rotary rings")
    print(f"max-slack schedule: M* = {result.slack_available:.1f} ps "
          f"(guaranteed {result.slack_guaranteed:.1f} ps during optimization)")

    print("\niter  tapping WL (um)  signal WL (um)  AFD (um)")
    base = result.base
    print(f"base  {base.tapping_wirelength:15.0f}  {base.signal_wirelength:14.0f}  "
          f"{base.average_flipflop_distance:8.1f}")
    for rec in result.history:
        print(f"{rec.iteration:4d}  {rec.tapping_wirelength:15.0f}  "
              f"{rec.signal_wirelength:14.0f}  {rec.average_flipflop_distance:8.1f}")

    print(f"\ntapping cost reduced {result.tapping_improvement:.1%} "
          f"(signal wirelength change {result.signal_penalty:+.1%})")

    # Every flip-flop's tapping point satisfies its delay target:
    ff, sol = next(iter(result.assignment.solutions.items()))
    print(f"\nexample tapping: {ff} -> ring {sol.ring_id} segment "
          f"{sol.segment_index} at ({sol.point.x:.1f}, {sol.point.y:.1f}), "
          f"stub {sol.wirelength:.1f} um"
          + (", wire snaked" if sol.snaked else ""))


if __name__ == "__main__":
    main()
