"""Table I: slowdown when co-running secure Nginx with 505.mcf.

Paper results (Sec. VII-C), slowdowns relative to each configuration's solo
run — Nginx: CPU 15.8%, SmartNIC 7.3%, QuickAssist 28.7%, SmartDIMM 9.5%;
mcf: 15.5%, 8.7%, 37.9%, 10.3%.  SmartDIMM interferes least on both sides
even while serving the most requests (569K vs 377K for the SmartNIC).

The numbers are the ``datapath`` matrix target's co-run rows.
"""

PLACEMENTS = ["cpu", "smartnic", "quickassist", "smartdimm"]


def test_table1_corun_slowdowns(datapath):
    results = datapath["corun"]
    nginx = {p: results[p]["nginx_slowdown"] for p in PLACEMENTS}
    mcf = {p: results[p]["corunner_slowdown"] for p in PLACEMENTS}
    # SmartDIMM disturbs and is disturbed least among host-side competitors.
    assert nginx["smartdimm"] < nginx["cpu"]
    assert mcf["smartdimm"] < mcf["cpu"]
    # QuickAssist is the worst neighbour for mcf (paper: 37.9%).
    assert mcf["quickassist"] == max(mcf.values())
    assert 0.25 < mcf["quickassist"] < 0.45
    # CPU configuration slowdowns in the paper's range (~15%).
    assert 0.10 < nginx["cpu"] < 0.25
    assert 0.10 < mcf["cpu"] < 0.25
    # SmartDIMM still achieves the highest absolute co-run RPS (Sec. VII-C).
    rps = {p: results[p]["nginx_corun_rps"] for p in PLACEMENTS}
    assert max(rps, key=rps.get) == "smartdimm"
