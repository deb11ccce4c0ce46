"""Fig. 13: the ULP-processing design-space comparison matrix.

Paper result (Sec. VIII): across performance-under-contention, transport
compatibility, ULP diversity, loss resilience, and transport flexibility,
SmartDIMM covers the criteria best; autonomous SmartNIC offload is weakest
on loss resilience and ULP diversity, and TOEs freeze the transport layer.
"""

from repro.analysis.design_space import CRITERIA, OPTIONS, DesignSpace


def test_fig13_matrix():
    space = DesignSpace()

    width = max(len(option) for option in OPTIONS)
    lines = ["Fig. 13 — design-space scores (0-3, higher is better)"]
    header = "criterion".ljust(38) + "  ".join(option.rjust(width) for option in OPTIONS)
    lines.append(header)
    for criterion in CRITERIA:
        row = criterion.ljust(38)
        row += "  ".join(str(space.score(option, criterion)).rjust(width) for option in OPTIONS)
        lines.append(row)
        lines.append("    rationale: " + space.rationale(criterion))
    totals = space.totals()
    lines.append("totals".ljust(38) + "  ".join(str(totals[o]).rjust(width) for o in OPTIONS))
    print("\n" + "\n".join(lines))

    assert totals["smartdimm"] == max(totals.values())
    assert space.score("smartdimm", "high_llc_contention_performance") == 3
    assert space.score("smartnic_autonomous", "loss_reorder_resilience") <= 1
    assert space.score("smartnic_autonomous", "ulp_diversity") <= 1
    assert space.score("smartnic_toe", "transport_flexibility") == 0
    # The CPU keeps maximal flexibility scores even where it loses on speed.
    for criterion in ("transport_compatibility", "ulp_diversity", "transport_flexibility"):
        assert space.score("cpu", criterion) == 3
