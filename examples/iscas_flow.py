#!/usr/bin/env python3
"""Reproduce the paper's main experiment on one ISCAS89 benchmark.

Runs the integrated flow with the network-flow assignment engine on a
Table II circuit and prints Table III (base case) and Table IV (after the
stage 4-6 iterations) style rows, including power.

Run:  python examples/iscas_flow.py [circuit]        (default: s9234)
"""

import sys

from repro import FlowRequest, run_flow
from repro.constants import DEFAULT_TECHNOLOGY, frequency_ghz
from repro.netlist import PROFILES
from repro.power import clock_power_mw, signal_power_mw


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "s9234"
    if name not in PROFILES:
        raise SystemExit(f"unknown circuit {name!r}; choose from {sorted(PROFILES)}")
    profile = PROFILES[name]
    request = FlowRequest(circuit=name)
    circuit = request.resolve()

    # The request picks the profile's paper ring grid for named benchmarks.
    result = run_flow(request).result

    freq = frequency_ghz(result.array.period)
    n_ff = len(circuit.flip_flops)
    tech = DEFAULT_TECHNOLOGY

    def power_row(tap_wl: float, sig_wl: float) -> tuple[float, float, float]:
        clk = clock_power_mw(tap_wl, n_ff, freq, tech)
        sig = signal_power_mw(circuit, sig_wl, freq, tech)
        return clk, sig, clk + sig

    print(f"=== {name}: {profile.num_cells} cells, {n_ff} flip-flops, "
          f"{result.array.num_rings} rings at {freq:.1f} GHz ===")

    b = result.base
    clk, sig, tot = power_row(b.tapping_wirelength, b.signal_wirelength)
    print("\nBase case (Table III style):")
    print(f"  AFD          {b.average_flipflop_distance:10.1f} um")
    print(f"  tapping WL   {b.tapping_wirelength:10.0f} um")
    print(f"  signal WL    {b.signal_wirelength:10.0f} um")
    print(f"  total WL     {b.total_wirelength:10.0f} um")
    print(f"  clock power  {clk:10.2f} mW")
    print(f"  signal power {sig:10.2f} mW")
    print(f"  total power  {tot:10.2f} mW")

    f = result.final
    clk2, sig2, tot2 = power_row(f.tapping_wirelength, f.signal_wirelength)
    print("\nAfter stage 4-6 iterations (Table IV style):")
    print(f"  AFD          {f.average_flipflop_distance:10.1f} um")
    print(f"  tapping WL   {f.tapping_wirelength:10.0f} um   "
          f"({result.tapping_improvement:+.1%} vs base)")
    print(f"  signal WL    {f.signal_wirelength:10.0f} um   "
          f"({result.signal_penalty:+.1%})")
    print(f"  total WL     {f.total_wirelength:10.0f} um   "
          f"({result.total_improvement:+.1%})")
    print(f"  clock power  {clk2:10.2f} mW   ({1 - clk2 / clk:+.1%})")
    print(f"  total power  {tot2:10.2f} mW   ({1 - tot2 / tot:+.1%})")
    print(f"\n  iterations: {len(result.history)}   "
          f"CPU: stages {result.seconds_algorithm:.1f}s, "
          f"placer {result.seconds_placer:.1f}s")


if __name__ == "__main__":
    main()
