"""Ablation: TLS offload striped across 1-8 interleaved channels (Sec. V-D).

Size-preserving ULPs survive fine-grain channel interleaving if every
SmartDIMM holds its own configuration copy.  We sweep the channel count and
verify: perfect per-device load balance, one registration record per device
per page (the replicated-config cost), bit-exact output after the CPU-side
partial-tag combine, and clean deregistration everywhere.
"""

from repro.core.multichannel import MultiChannelConfig, MultiChannelSession
from repro.dram.commands import LINES_PER_PAGE
from repro.ulp.gcm import AESGCM
from repro.workloads.corpus import CorpusKind, generate_corpus

KEY, NONCE = bytes(range(16)), bytes(12)
CHANNELS = [1, 2, 4, 8]
PAYLOAD = generate_corpus(CorpusKind.TEXT, 8000)


def _run(channels):
    session = MultiChannelSession(MultiChannelConfig(channels=channels))
    out = session.tls_encrypt(KEY, NONCE, PAYLOAD)
    ct, tag = AESGCM(KEY).encrypt(NONCE, PAYLOAD)
    assert out == ct + tag, channels
    shares = [d.stats.dsa_lines_processed for d in session.devices]
    mmio = sum(d.stats.mmio_writes for d in session.devices)
    leaks = sum(d.translation_table.live_entries for d in session.devices)
    return {"shares": shares, "mmio_writes": mmio, "leaks": leaks}


def test_multichannel_scaling():
    results = {c: _run(c) for c in CHANNELS}
    pages = (len(PAYLOAD) + 4095) // 4096
    lines = [
        "Ablation — TLS striped across interleaved channels "
        f"({len(PAYLOAD)}B record, {pages} pages)",
        f"{'channels':>8} {'per-device lines':>30} {'MMIO writes':>11}",
    ]
    for channels, result in results.items():
        lines.append(
            f"{channels:>8d} {str(result['shares']):>30} {result['mmio_writes']:>11d}"
        )
    lines.append("output bit-exact at every channel count; CPU combines the")
    lines.append("per-DIMM partial tags (constant work per record).")
    print("\n" + "\n".join(lines))

    for channels, result in results.items():
        # Perfect balance: interleaving splits the lines evenly.
        expected_share = pages * LINES_PER_PAGE // channels
        assert all(share == expected_share for share in result["shares"])
        assert len(result["shares"]) == channels
        assert result["leaks"] == 0
    # Replicated configuration: registration traffic scales with channels.
    assert results[8]["mmio_writes"] > results[1]["mmio_writes"] * 4
