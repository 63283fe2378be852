"""Run the exhaustive design-space exploration end to end.

Widens the Sec. 7 sweep beyond the paper's table: enumerates the
AxBxC_MxN x (A-DBB bound, SRAM size) keyspace, evaluates every point
through the analytic tier and prints the (energy x cycles x area)
Pareto frontier.

Equivalent CLI:

    python -m repro dse --styles tu,dp --weight-nnz 4 --a-nnz 2,4,8 \\
        --sram-mb 1.25,2.5

Run:  python examples/dse_sweep.py
"""

from repro.design import DSEAxes, run_dse
from repro.design.dse import render_artifact

AXES = DSEAxes(
    styles=(True, False),       # time-unrolled and dot-product
    weight_nnz=(4,),            # the paper's B=4 DBB bound
    a_nnz=(2, 4, 8),            # activation-DBB bound per layer
    sram_mb=(1.25, 2.5),
)


def main() -> None:
    artifact = run_dse(AXES)
    print(render_artifact(artifact, top=8).render())
    print(f"\nfrontier: {', '.join(artifact['frontier'])}")


if __name__ == "__main__":
    main()
