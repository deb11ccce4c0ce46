"""LZ77 match finding for DEFLATE (RFC 1951 Sec. 4).

Produces a stream of symbols — literals and (length, distance) matches —
bounded by DEFLATE's limits: match lengths 3..258 and distances 1..32768.
Two match finders are provided:

* :class:`HashChainMatcher` — the software-quality matcher used by the CPU
  baseline, with hash chains and configurable search depth (zlib-style).
* A hardware-constrained variant lives in :mod:`repro.core.dsa.deflate_dsa`;
  it reuses :func:`tokens_to_bytes` and the symbol types from here so that
  both emit the same token language.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_MATCH = 3
MAX_MATCH = 258
MAX_DISTANCE = 32768


@dataclass(frozen=True, slots=True)
class Literal:
    """A single uncompressed byte."""

    value: int


#: The 256 literal tokens, shared by every matcher instead of built per byte.
LITERALS = tuple(Literal(value) for value in range(256))


@dataclass(frozen=True, slots=True)
class Match:
    """A back-reference: copy `length` bytes from `distance` bytes back."""

    length: int
    distance: int

    def __post_init__(self):
        if not MIN_MATCH <= self.length <= MAX_MATCH:
            raise ValueError("match length %d out of range" % self.length)
        if not 1 <= self.distance <= MAX_DISTANCE:
            raise ValueError("match distance %d out of range" % self.distance)


def common_prefix_length(data, a: int, b: int, limit: int) -> int:
    """Length of the common prefix of ``data[a:]`` and ``data[b:]``, at most
    `limit`, compared in 32-byte slabs; the first differing byte of a slab
    is found from the XOR of the two slabs as integers."""
    length = 0
    while length < limit:
        stop = length + 32
        if stop > limit:
            stop = limit
        left = data[a + length : a + stop]
        right = data[b + length : b + stop]
        if left != right:
            diff = int.from_bytes(left, "little") ^ int.from_bytes(right, "little")
            return length + (((diff & -diff).bit_length() - 1) >> 3)
        length = stop
    return length


def tokens_to_bytes(tokens: list) -> bytes:
    """Reconstruct the original byte stream from LZ77 tokens.

    This is the decoder-side semantics of the token stream and the invariant
    every matcher must satisfy: ``tokens_to_bytes(matcher(data)) == data``.
    """
    out = bytearray()
    for token in tokens:
        if isinstance(token, Literal):
            out.append(token.value)
        else:
            if token.distance > len(out):
                raise ValueError("match distance reaches before stream start")
            start = len(out) - token.distance
            # Overlapping copies replicate recent bytes (RLE-style).
            for i in range(token.length):
                out.append(out[start + i])
    return bytes(out)


class HashChainMatcher:
    """zlib-style greedy matcher with hash chains and lazy evaluation.

    Parameters mirror zlib's notion of compression effort:

    * ``max_chain`` — how many chain entries to probe per position.
    * ``lazy`` — whether to defer a match by one byte if the next position
      yields a strictly longer match (zlib levels >= 4).
    * ``window_size`` — history window; DEFLATE allows up to 32 KB, the
      SmartDIMM DSA restricts itself to 4 KB (Sec. V-B).
    * ``lazy_cutoff`` — zlib's ``max_lazy_match``: a match at least this
      long is emitted immediately without probing ``pos + 1``.  The default
      (:data:`MAX_MATCH`) cannot change the token stream — no match can be
      strictly longer than 258 — so it is purely an upper bound until a
      caller dials it down.
    * ``nice_length`` — stop walking the chain once a match this long is
      found (zlib's ``nice_match``).  Defaults to :data:`MAX_MATCH`, which
      matches the pre-existing "stop at the longest possible match" break.
    """

    def __init__(
        self,
        max_chain: int = 128,
        lazy: bool = True,
        window_size: int = MAX_DISTANCE,
        lazy_cutoff: int = MAX_MATCH,
        nice_length: int = MAX_MATCH,
    ):
        if window_size > MAX_DISTANCE:
            raise ValueError("window_size exceeds DEFLATE maximum")
        if max_chain < 1:
            raise ValueError("max_chain must be at least 1")
        if not MIN_MATCH <= lazy_cutoff <= MAX_MATCH:
            raise ValueError("lazy_cutoff must lie in [%d, %d]" % (MIN_MATCH, MAX_MATCH))
        if not MIN_MATCH <= nice_length <= MAX_MATCH:
            raise ValueError("nice_length must lie in [%d, %d]" % (MIN_MATCH, MAX_MATCH))
        self.max_chain = max_chain
        self.lazy = lazy
        self.window_size = window_size
        self.lazy_cutoff = lazy_cutoff
        self.nice_length = nice_length

    @staticmethod
    def _hash(data: bytes, pos: int) -> int:
        return (data[pos] << 10) ^ (data[pos + 1] << 5) ^ data[pos + 2]

    def _longest_match(self, data: bytes, pos: int, head: dict, prev: dict) -> Match:
        """Best match at `pos`, or None."""
        if pos + MIN_MATCH > len(data):
            return None
        limit = max(0, pos - self.window_size)
        candidate = head.get(self._hash(data, pos), -1)
        best_length = MIN_MATCH - 1
        best_distance = 0
        chain_budget = self.max_chain
        max_length = min(MAX_MATCH, len(data) - pos)
        while candidate >= limit and chain_budget > 0:
            chain_budget -= 1
            # A candidate can only beat the current best if it agrees at the
            # byte the best match would have to extend past (zlib's quick
            # reject) — skipping it cannot change which match wins.
            if (
                best_length >= MIN_MATCH
                and data[candidate + best_length] != data[pos + best_length]
            ):
                candidate = prev.get(candidate, -1)
                continue
            length = common_prefix_length(data, candidate, pos, max_length)
            if length > best_length:
                best_length = length
                best_distance = pos - candidate
                if length >= max_length or length >= self.nice_length:
                    break
            candidate = prev.get(candidate, -1)
        if best_length >= MIN_MATCH:
            return Match(length=best_length, distance=best_distance)
        return None

    def tokenize(self, data: bytes) -> list:
        """Tokenize `data` into a list of Literal/Match symbols."""
        tokens = []
        head = {}
        prev = {}
        pos = 0
        n = len(data)

        def insert(position: int) -> None:
            if position + MIN_MATCH <= n:
                key = self._hash(data, position)
                prior = head.get(key, -1)
                if prior >= 0:
                    prev[position] = prior
                head[key] = position

        while pos < n:
            match = self._longest_match(data, pos, head, prev)
            if (
                match is not None
                and self.lazy
                and match.length < self.lazy_cutoff
                and pos + 1 < n
            ):
                insert(pos)
                next_match = self._longest_match(data, pos + 1, head, prev)
                if next_match is not None and next_match.length > match.length:
                    tokens.append(LITERALS[data[pos]])
                    pos += 1
                    match = next_match
                else:
                    # Undo nothing: insert() is idempotent for our purposes.
                    pass
            elif match is not None:
                insert(pos)
            if match is None:
                insert(pos)
                tokens.append(LITERALS[data[pos]])
                pos += 1
            else:
                tokens.append(match)
                # Insert hash entries for the matched span so later matches
                # can reference into it (bounded to keep worst case sane).
                end = pos + match.length
                for p in range(pos + 1, min(end, n - MIN_MATCH + 1)):
                    insert(p)
                pos = end
        return tokens
