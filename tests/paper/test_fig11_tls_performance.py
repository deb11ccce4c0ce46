"""Fig. 11: Nginx TLS performance across accelerator placements.

Paper results (Sec. VII-B), all normalised to the CPU configuration:

* SmartDIMM: +21.0% RPS at 4KB, +35.8% at 16KB; -49.1% memory bandwidth
  and -21.8% CPU cost at 4KB.
* SmartNIC and QuickAssist both fail to improve 4KB messages (offload
  initialisation overhead); SmartNIC does outperform the CPU at 16KB.
* At 64KB SmartDIMM still holds +11.9% RPS over the SmartNIC at lower
  CPU and memory cost.

The numbers are the ``datapath`` matrix target's TLS crossover rows.
"""

from repro.analysis.plots import render_bars

MESSAGES = [4096, 16384, 65536]
PLACEMENTS = ["cpu", "smartnic", "quickassist", "smartdimm"]


def test_fig11_tls_placements(datapath):
    table = datapath["crossover"]["tls"]

    def ratio(message, placement, attribute="rps"):
        row = table["%d" % message]
        return row[placement][attribute] / row["cpu"][attribute]

    print("\n" + render_bars(
        {
            "RPS, %dB (normalised to CPU)" % message: {
                placement: ratio(message, placement) for placement in PLACEMENTS
            }
            for message in MESSAGES
        }
    ).rstrip())

    # SmartDIMM RPS gains (paper: +21.0% / +35.8%).
    assert 1.05 < ratio(4096, "smartdimm") < 1.6
    assert 1.15 < ratio(16384, "smartdimm") < 1.7
    assert ratio(16384, "smartdimm") > ratio(4096, "smartdimm")
    # SmartDIMM memory-bandwidth reduction (paper: -49.1% at 4KB).
    assert 0.35 < ratio(4096, "smartdimm", "membw_bytes_per_request") < 0.65
    # SmartDIMM CPU-cost reduction (paper: -21.8% at 4KB).
    assert ratio(4096, "smartdimm", "cycles_per_request") < 0.9
    # SmartNIC: no improvement at 4KB, a win at 16KB.
    assert 0.92 < ratio(4096, "smartnic") < 1.08
    assert ratio(16384, "smartnic") > 1.05
    # QuickAssist: fails for fine-grain TLS offload.
    assert ratio(4096, "quickassist") < 0.75
    assert ratio(16384, "quickassist") < 0.75
    # 64KB: SmartDIMM over SmartNIC (paper: +11.9% RPS, lower CPU and BW).
    sdimm, nic = table["65536"]["smartdimm"], table["65536"]["smartnic"]
    assert 1.03 < sdimm["rps"] / nic["rps"] < 1.35
    assert sdimm["cycles_per_request"] < nic["cycles_per_request"]
    assert sdimm["membw_bytes_per_request"] < nic["membw_bytes_per_request"]
