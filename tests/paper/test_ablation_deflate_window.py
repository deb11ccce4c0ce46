"""Ablation: deflate parallelisation window vs ratio, conflicts, and area.

Sec. V-B fixes the window at 8 bytes: widening it "marginally improves the
compression ratio and bandwidth" but "exponentially raises the memory
requirements and the logic complexity".  We sweep the window with memory
scaled alongside (as hardware must) and report ratio, bank-conflict rate,
and the modelled FPGA area.
"""

import zlib

from repro.analysis.power import PowerModel
from repro.core.dsa.deflate_dsa import HardwareMatcher
from repro.dram.commands import PAGE_SIZE
from repro.ulp.bitstream import BitWriter
from repro.ulp.deflate import write_fixed_block
from repro.workloads.corpus import CorpusKind, generate_corpus

WINDOWS = [4, 8, 16]
PAGES = 12


def _run():
    model = PowerModel()
    corpus = [
        generate_corpus(kind, PAGE_SIZE, seed=i)
        for i, kind in enumerate(
            [CorpusKind.HTML, CorpusKind.TEXT, CorpusKind.JSON, CorpusKind.LOG] * 3
        )
    ][:PAGES]
    rows = []
    for window in WINDOWS:
        compressed = 0
        conflicts = 0
        lookups = 0
        for page in corpus:
            matcher = HardwareMatcher(
                window_bytes=window, banks=2 * window, bucket_depth=window // 2 or 1,
                hash_buckets=64 * window,
            )
            writer = BitWriter()
            tokens = matcher.tokenize(page)
            write_fixed_block(writer, tokens, final=True)
            stream = writer.getvalue()
            assert zlib.decompress(stream, -15) == page
            compressed += len(stream)
            conflicts += matcher.bank_conflicts
            lookups += matcher.lookups
        area = model.deflate_dsa_resources(window)
        rows.append(
            {
                "window": window,
                "ratio": compressed / (PAGES * PAGE_SIZE),
                "conflict_rate": conflicts / lookups,
                "luts": area.luts,
                "bytes_per_cycle": window,
            }
        )
    return rows


def test_deflate_window_ablation():
    rows = _run()
    lines = ["Ablation — deflate parallelisation window (memory scaled with window)",
             f"{'window':>6} {'ratio':>7} {'conflict rate':>13} {'kLUTs':>7} {'B/cycle':>7}"]
    for row in rows:
        lines.append(
            f"{row['window']:>6d} {row['ratio']:>7.3f} {row['conflict_rate']:>13.3f} "
            f"{row['luts'] / 1000:>7.1f} {row['bytes_per_cycle']:>7d}"
        )
    print("\n" + "\n".join(lines))

    ratios = [row["ratio"] for row in rows]
    # Ratio moves only marginally across the sweep...
    assert max(ratios) / min(ratios) < 1.15
    # ...throughput scales linearly with the window...
    assert rows[-1]["bytes_per_cycle"] == 4 * rows[0]["bytes_per_cycle"]
    # ...but area grows superlinearly: the paper's reason to stop at 8.
    luts = [row["luts"] for row in rows]
    assert luts[2] > 2.5 * luts[1] > 2.5 * 2.5 * luts[0] / 2.5
    assert luts[2] / luts[0] > (WINDOWS[2] / WINDOWS[0]) ** 1.3
