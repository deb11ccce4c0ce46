"""Fig. 2: achievable bandwidth over an encrypted connection under drops.

Paper result (Sec. III, Observation 1): SmartNIC TLS offload delivers the
same or slightly lower throughput than AES-NI at zero loss, and its
advantage disappears entirely — falling below the CPU — once packets drop,
because every retransmission forces a CPU fallback plus hardware resync.
"""

from repro.net.link import LossyLink
from repro.net.smartnic import CpuTlsCrypto, NoCrypto, SmartNicTlsCrypto
from repro.net.tcp import TcpSimulation

DROP_RATES = [0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2]
TRANSFER_BYTES = 20_000_000


def _goodput(crypto_factory, drop_rate, seed=1):
    link = LossyLink(drop_rate=drop_rate, seed=seed)
    sim = TcpSimulation(TRANSFER_BYTES, crypto_factory(), link, initial_rto_s=5e-3)
    return sim.run().goodput_gbps


def _sweep():
    rows = []
    for drop in DROP_RATES:
        rows.append(
            {
                "drop": drop,
                "http": _goodput(NoCrypto, drop),
                "cpu": _goodput(CpuTlsCrypto, drop),
                "smartnic": _goodput(SmartNicTlsCrypto, drop),
            }
        )
    return rows


def test_fig02_smartnic_vs_cpu_under_drops():
    rows = _sweep()
    lines = ["Fig. 2 — encrypted-connection goodput (Gbps) vs drop rate",
             f"{'drop rate':>10} {'HTTP':>8} {'CPU':>8} {'SmartNIC':>9}"]
    for row in rows:
        lines.append(
            f"{row['drop']:>10.4%} {row['http']:>8.2f} {row['cpu']:>8.2f} {row['smartnic']:>9.2f}"
        )
    print("\n" + "\n".join(lines))

    zero = rows[0]
    # Zero loss: offload gives "the same, or even lower" throughput.
    assert zero["smartnic"] <= zero["cpu"] * 1.05
    assert zero["smartnic"] >= zero["cpu"] * 0.8
    # Under meaningful loss the SmartNIC falls clearly below the CPU.
    for row in rows:
        if row["drop"] >= 1e-3:
            assert row["smartnic"] < row["cpu"]
    worst = rows[-1]
    assert worst["smartnic"] < worst["cpu"] * 0.9
    # And everything degrades with loss (TCP behaves).
    assert worst["cpu"] < zero["cpu"] * 0.5
