"""Ablation: memory-channel interleaving vs ULP class (Sec. V-D).

Fine-grain (cacheline) interleaving scatters consecutive lines across
channels.  Size-preserving ULPs (AES-GCM) tolerate it — each SmartDIMM just
needs its own copy of the config — while stateful, non-size-preserving ULPs
(deflate) would see internally fragmented messages, so their buffers must
map to a single channel (single-channel mode, flex mode, or interleaving-
aware allocation).
"""

from repro.dram.address import AddressMapping, InterleaveMode
from repro.dram.commands import CACHELINE_SIZE, PAGE_SIZE
from repro.ulp.gcm import AESGCM


def _fragmentation(interleave, channels=4):
    mapping = AddressMapping(
        channels=channels, rows=1 << 8, interleave=interleave
    )
    lines = list(mapping.lines_of_page(3))
    per_line_channels = [mapping.decode(address).channel for address in lines]
    switches = sum(1 for a, b in zip(per_line_channels, per_line_channels[1:]) if a != b)
    return per_line_channels, switches


def _gcm_tolerates_fragmentation():
    """Encrypt alternating line ranges as two 'channels' would see them and
    splice the results: byte-identical to the contiguous encryption."""
    gcm = AESGCM(bytes(16))
    iv = bytes(12)
    message = bytes((i * 11) & 0xFF for i in range(PAGE_SIZE))
    full, _ = gcm.encrypt(iv, message)
    spliced = bytearray(PAGE_SIZE)
    for channel in range(2):
        for line in range(channel, PAGE_SIZE // CACHELINE_SIZE, 2):
            start_block = line * (CACHELINE_SIZE // 16)
            stream = gcm.keystream(iv, CACHELINE_SIZE, start_block=start_block)
            lo = line * CACHELINE_SIZE
            spliced[lo : lo + CACHELINE_SIZE] = bytes(
                p ^ s for p, s in zip(message[lo : lo + CACHELINE_SIZE], stream)
            )
    return bytes(spliced) == full


def test_interleaving_ablation():
    fine_channels, fine_switches = _fragmentation(InterleaveMode.CACHELINE)
    single_channels, single_switches = _fragmentation(InterleaveMode.SINGLE_CHANNEL)
    result = {
        "fine_switches": fine_switches,
        "fine_channels_used": len(set(fine_channels)),
        "single_switches": single_switches,
        "single_channels_used": len(set(single_channels)),
        "gcm_ok": _gcm_tolerates_fragmentation(),
    }
    lines = ["Ablation — channel interleaving and ULP class (one 4KB page, 4 channels)",
             f"cacheline interleave: {result['fine_channels_used']} channels touched, "
             f"{result['fine_switches']} channel switches within the page",
             f"single-channel mode:  {result['single_channels_used']} channel touched, "
             f"{result['single_switches']} switches",
             f"AES-GCM splice across channels bit-exact: {result['gcm_ok']}",
             "deflate requires single-channel mapping (stateful over the stream)"]
    print("\n" + "\n".join(lines))

    # Fine-grain interleaving fragments the page across all channels...
    assert result["fine_channels_used"] == 4
    assert result["fine_switches"] == 63
    # ...single-channel mode keeps it whole (deflate's requirement)...
    assert result["single_channels_used"] == 1
    # ...and the size-preserving ULP is indifferent (Sec. V-D).
    assert result["gcm_ok"]
