"""Fig. 12: Nginx compression performance across placements.

Paper results (Sec. VII-B), normalised to the CPU configuration:

* SmartDIMM: 5.09x RPS at 4KB and 10.28x at 16KB, with -81.5% CPU cost and
  -88.9% memory bandwidth.
* QuickAssist provides no RPS improvement (synchronous fine-grain offload)
  and *increases* CPU/memory cost relative to its throughput.
* SmartNIC is absent: compression is non-size-preserving (Observation 1).

The numbers are the ``datapath`` matrix target's DEFLATE crossover rows.
"""

import pytest

from repro.sim.server import Placement, Ulp, WorkloadSpec

MESSAGES = [4096, 16384]


def test_fig12_compression_placements(datapath):
    def ratio(message, placement, attribute="rps", ulp="deflate"):
        row = datapath["crossover"][ulp]["%d" % message]
        return row[placement][attribute] / row["cpu"][attribute]

    # SmartDIMM multiples (paper: 5.09x / 10.28x) and their ordering.
    assert 4.0 < ratio(4096, "smartdimm") < 12.0
    assert 8.0 < ratio(16384, "smartdimm") < 13.0
    assert ratio(16384, "smartdimm") > ratio(4096, "smartdimm")
    # SmartDIMM resource reductions (paper: -81.5% CPU, -88.9% memory BW).
    assert ratio(4096, "smartdimm", "cycles_per_request") < 0.25
    assert ratio(16384, "smartdimm", "membw_bytes_per_request") < 0.3
    # QuickAssist: no RPS gain for either size.
    for message in MESSAGES:
        assert 0.7 < ratio(message, "quickassist") < 1.4
    # Compression gains dwarf the TLS gains (AES-NI narrows TLS, Sec. VII-B).
    assert ratio(4096, "smartdimm") > 2 * ratio(4096, "smartdimm", ulp="tls")


def test_fig12_smartnic_structurally_excluded():
    with pytest.raises(ValueError):
        WorkloadSpec(ulp=Ulp.DEFLATE, placement=Placement.SMARTNIC)
