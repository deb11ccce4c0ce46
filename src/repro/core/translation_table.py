"""Translation Table: physical page number → scratchpad/config mapping.

A CAM would match page numbers in one cycle but is too power-hungry for a
DIMM buffer device, so the paper uses a **3-ary cuckoo hash table** sized at
3× the required entries (12 288 slots for 4 096 live mappings) to keep
occupancy under 33 %, where insertion almost always succeeds immediately or
with a single displacement.  An **8-entry CAM** absorbs insertions so the
cuckoo moves happen off the critical path (Sec. IV-C).

This model implements real cuckoo semantics — three hash functions,
displacement chains, failure on cycle — plus the CAM staging array, and
exposes the statistics the paper's sizing argument rests on (probed in
`tests/paper/test_claim_cuckoo.py`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TranslationEntry:
    """One page mapping held by the buffer device.

    `is_config` is the single-bit flag distinguishing Config Memory targets
    from Scratchpad targets.  For a source page the entry names the
    destination page(s) and the config-memory slot holding the offload
    context; for a destination page it names the scratchpad page and the
    source page it is computed from.
    """

    page_number: int
    is_config: bool
    target_offset: int  # scratchpad page index or config slot index
    linked_pages: tuple = ()  # sbuf entry: its dbuf pages; dbuf entry: (sbuf,)
    is_source: bool = False


class CuckooInsertError(Exception):
    """Raised when an insert fails even after CAM staging (table too full)."""


class TranslationTable:
    """3-ary cuckoo hash table with an 8-entry CAM staging array."""

    HASH_MULTIPLIERS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D)
    MAX_DISPLACEMENTS = 32
    CAM_SIZE = 8

    def __init__(self, slots: int = 12288):
        if slots % len(self.HASH_MULTIPLIERS):
            raise ValueError("slot count must divide evenly across hash ways")
        self.slots = slots
        self.fault_plan = None  # optional FaultPlan probing "tt.insert"
        self._way_size = slots // len(self.HASH_MULTIPLIERS)
        self._ways = [
            [None] * self._way_size for _ in range(len(self.HASH_MULTIPLIERS))
        ]
        self._cam = {}
        self.live_entries = 0
        # Statistics backing the paper's sizing claims.
        self.inserts = 0
        self.immediate_inserts = 0
        self.single_displacement_inserts = 0
        self.total_displacements = 0
        self.cam_spills = 0
        self.failures = 0

    # -- hashing -----------------------------------------------------------------

    def _hash(self, way: int, page_number: int) -> int:
        mixed = (page_number * self.HASH_MULTIPLIERS[way]) & 0xFFFFFFFF
        mixed ^= mixed >> 15
        return mixed % self._way_size

    # -- lookup (every CAS, so this is the hot path) --------------------------------

    def lookup(self, page_number: int):
        """Return the entry for `page_number`, or None.

        Hardware probes the CAM and all three ways in parallel in one cycle.
        """
        entry = self._cam.get(page_number)
        if entry is not None:
            return entry
        for way in range(len(self._ways)):
            candidate = self._ways[way][self._hash(way, page_number)]
            if candidate is not None and candidate.page_number == page_number:
                return candidate
        return None

    def __contains__(self, page_number: int) -> bool:
        return self.lookup(page_number) is not None

    # -- insert / remove --------------------------------------------------------------

    def insert(self, entry: TranslationEntry) -> None:
        """Insert a mapping; stages through the CAM, then cuckoo-places it.

        Mirrors the hardware flow: the new mapping lands in the CAM
        immediately (so lookups hit it next cycle) and migrates into the
        cuckoo table off the critical path.  We perform the migration
        eagerly; the CAM only retains entries whose migration failed.
        """
        if self.lookup(entry.page_number) is not None:
            raise ValueError("page %d already registered" % entry.page_number)
        self.inserts += 1
        if self.fault_plan is not None and self.fault_plan.fires("tt.insert"):
            # Injected table-full failure: same exception, same recovery
            # path (CompCpy force-recycles translations and retries) as a
            # genuine no-cuckoo-path-and-CAM-exhausted insert.
            self.failures += 1
            raise CuckooInsertError(
                "translation table full (injected) inserting page %d"
                % entry.page_number
            )
        displacements = self._cuckoo_place(entry)
        if displacements < 0:
            if len(self._cam) >= self.CAM_SIZE:
                self.failures += 1
                raise CuckooInsertError(
                    "translation table full: no cuckoo path and CAM exhausted"
                )
            self._cam[entry.page_number] = entry
            self.cam_spills += 1
        elif displacements == 0:
            self.immediate_inserts += 1
        elif displacements == 1:
            self.single_displacement_inserts += 1
        self.live_entries += 1

    def _slots_for(self, page_number: int) -> list:
        return [(way, self._hash(way, page_number)) for way in range(len(self._ways))]

    def _cuckoo_place(self, entry: TranslationEntry) -> int:
        """Place `entry` by BFS over displacement paths (lossless).

        Returns the number of displacements performed, or -1 when no empty
        slot is reachable within MAX_DISPLACEMENTS moves — in which case
        nothing has been moved and the caller stages the entry in the CAM.
        """
        # Breadth-first search from the entry's candidate slots toward any
        # empty slot; each occupied slot expands to its occupant's alternates.
        frontier = [(way, index, None) for way, index in self._slots_for(entry.page_number)]
        parents = []  # flat arena of (way, index, parent_arena_index)
        visited = set()
        depth_markers = len(frontier)
        depth = 0
        while frontier and depth <= self.MAX_DISPLACEMENTS:
            next_frontier = []
            for way, index, parent in frontier:
                if (way, index) in visited:
                    continue
                visited.add((way, index))
                parents.append((way, index, parent))
                arena_index = len(parents) - 1
                if self._ways[way][index] is None:
                    return self._apply_path(entry, parents, arena_index, depth)
                occupant = self._ways[way][index]
                for alt_way, alt_index in self._slots_for(occupant.page_number):
                    if (alt_way, alt_index) != (way, index):
                        next_frontier.append((alt_way, alt_index, arena_index))
            frontier = next_frontier
            depth += 1
        return -1

    def _apply_path(self, entry, parents, leaf: int, depth: int) -> int:
        """Shift occupants along the BFS path, freeing the root for `entry`."""
        chain = []
        node = leaf
        while node is not None:
            way, index, parent = parents[node]
            chain.append((way, index))
            node = parent
        # chain runs empty-slot -> ... -> root candidate slot.
        for i in range(len(chain) - 1):
            dst_way, dst_index = chain[i]
            src_way, src_index = chain[i + 1]
            self._ways[dst_way][dst_index] = self._ways[src_way][src_index]
        root_way, root_index = chain[-1]
        self._ways[root_way][root_index] = entry
        self.total_displacements += depth
        return depth

    def remove(self, page_number: int) -> TranslationEntry:
        """Remove and return the mapping (on page deregistration)."""
        entry = self._cam.pop(page_number, None)
        if entry is not None:
            self.live_entries -= 1
            return entry
        for way in range(len(self._ways)):
            index = self._hash(way, page_number)
            candidate = self._ways[way][index]
            if candidate is not None and candidate.page_number == page_number:
                self._ways[way][index] = None
                self.live_entries -= 1
                return candidate
        raise KeyError("page %d not registered" % page_number)

    # -- introspection -------------------------------------------------------------------

    @property
    def occupancy(self) -> float:
        return self.live_entries / self.slots

    def stats(self) -> dict:
        """Insertion/displacement statistics backing the sizing claims."""
        return {
            "inserts": self.inserts,
            "immediate_inserts": self.immediate_inserts,
            "single_displacement_inserts": self.single_displacement_inserts,
            "total_displacements": self.total_displacements,
            "cam_spills": self.cam_spills,
            "failures": self.failures,
            "occupancy": self.occupancy,
        }
