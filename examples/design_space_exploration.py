"""Reproduce the Sec. 7 methodology: sweep AxBxC_MxN, pick a design.

Enumerates every TPE configuration meeting the 4 TOPS peak constraint
(the Sec. 7 slice of the DSE keyspace), prices each on the reference
workload, extracts the area-vs-power Pareto frontier, selects the
lowest-power point, and emits the structural netlist the paper's RTL
generator would hand to the EDA flow.

Run:  python examples/design_space_exploration.py
"""

from repro.design import generate_structure
from repro.design.dse import (
    SEC7_AXES,
    SEC7_OBJECTIVES,
    DSESpace,
    evaluate_points,
    pareto_frontier,
    select_lowest_power,
)


def main() -> None:
    points = DSESpace(SEC7_AXES).points
    print(f"{len(points)} feasible time-unrolled design points at "
          f"4 TOPS peak (2048 MACs)")
    evaluations = list(evaluate_points(points).values())
    frontier = pareto_frontier(evaluations, SEC7_OBJECTIVES)
    print(f"\narea-vs-power frontier ({len(frontier)} points):")
    print(f"{'design':<14} {'power mW':>9} {'area mm2':>9} {'energy uJ':>10}")
    for row in frontier:
        print(f"{row.notation:<14} {row.power_mw:>9.1f} "
              f"{row.area_mm2:>9.2f} {row.energy_uj:>10.1f}")

    best = select_lowest_power(evaluations)
    paper, paper_point = next((e, p.design)
                              for e, p in zip(evaluations, points)
                              if e.notation == "8x4x4_8x8")
    print(f"\nselected: {best.notation} "
          f"({best.power_mw:.0f} mW, {best.area_mm2:.2f} mm2)")
    print(f"paper's 8x4x4_8x8: {paper.power_mw:.0f} mW, "
          f"{paper.area_mm2:.2f} mm2 "
          f"({paper.energy_uj / best.energy_uj - 1:+.1%} energy vs best)")

    print("\nstructural netlist of the paper's design point:")
    print(generate_structure(paper_point))


if __name__ == "__main__":
    main()
