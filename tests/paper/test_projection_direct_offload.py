"""Projection: end-to-end impact of the Sec. IV-E direct-offload model.

The paper's discussion predicts that new DDR commands "could eliminate
cache pollution entirely" and "conserve DDR data bandwidth".  The micro
ablation (`test_ablation_direct_offload.py`) verified both at command
level; this test projects the end-to-end effect through the macro model:
what Fig. 11 would look like with a modifiable memory controller.

This is a design study beyond the paper's evaluated prototype — labelled
as such in DESIGN.md.
"""

from repro.sim.server import Placement, ServerModel, Ulp, WorkloadSpec

MESSAGES = [4096, 16384]
PLACEMENTS = [Placement.CPU, Placement.SMARTDIMM, Placement.SMARTDIMM_DIRECT]


def _sweep():
    table = {}
    for message in MESSAGES:
        for placement in PLACEMENTS:
            spec = WorkloadSpec(ulp=Ulp.TLS, placement=placement, message_bytes=message)
            table[(message, placement)] = ServerModel(spec).solve()
    return table


def test_direct_offload_projection():
    table = _sweep()
    lines = ["Projection — TLS with the Sec. IV-E direct-offload model",
             f"{'msg':>6} {'placement':>17} {'RPS':>6} {'CPU/req':>8} {'memBW/req':>10}"]
    for message in MESSAGES:
        base = table[(message, Placement.CPU)]
        for placement in PLACEMENTS:
            metrics = table[(message, placement)]
            lines.append(
                f"{message:>6d} {placement.value:>17} "
                f"{metrics.rps / base.rps:>6.2f} "
                f"{metrics.cycles_per_request / base.cycles_per_request:>8.2f} "
                f"{metrics.membw_bytes_per_request / base.membw_bytes_per_request:>10.2f}"
            )
    print("\n" + "\n".join(lines))

    for message in MESSAGES:
        compcpy = table[(message, Placement.SMARTDIMM)]
        direct = table[(message, Placement.SMARTDIMM_DIRECT)]
        # Direct mode strictly dominates the CompCpy prototype.
        assert direct.rps > compcpy.rps
        assert direct.cycles_per_request < compcpy.cycles_per_request
        assert direct.membw_bytes_per_request < compcpy.membw_bytes_per_request
        # But the gain is incremental (tens of percent), not another order:
        # CompCpy already removed the dominant ULP cost.
        assert direct.rps < compcpy.rps * 1.8
