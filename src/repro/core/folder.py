"""The branch folder: decode one cache entry from a parcel stream.

This is the PDU's decode step. It decodes the instruction at ``pc``; if
that instruction is a non-branch and the *next* instruction is a branch
the :class:`~repro.core.policy.FoldPolicy` accepts, the two are folded
into a single :class:`~repro.core.decoded.DecodedEntry` — the separate
branch disappears from the execution pipeline entirely. The entry's
Next-PC / Alternate Next-PC fields are filled by the Figure-2 datapath
model in :mod:`repro.core.nextpc`.

Note what falls out of tagging entries by their starting address: a jump
*into* a folded-away branch simply misses the cache, and the branch is
re-decoded standalone at its own address.

An entry is a pure function of the parcels its decode read and the
policy, so a :data:`DecodeTable` can hand a decode to a later caller once
those parcels are checked (:meth:`BranchFolder.lookup`,
:meth:`BranchFolder.decode_into`).
"""

from __future__ import annotations

from typing import Callable

from repro.core.decoded import DecodedEntry
from repro.core.nextpc import compute_next_pcs
from repro.core.policy import FoldPolicy
from repro.isa.encoding import (
    EncodingError,
    decode_instruction,
    instruction_length,
    is_branch_parcel,
)
from repro.isa.instructions import Instruction
from repro.isa.parcels import PARCEL_BYTES

ParcelReader = Callable[[int], int]
"""Reads the 16-bit parcel at a byte address."""

DecodeRecord = tuple[tuple[int, ...], int, DecodedEntry]
"""One decode, as a decode table keeps it: the parcels the decode read
(contiguous from the entry's address, see :func:`decode_span`),
:meth:`BranchFolder.parcels_needed` and the frozen entry."""

DecodeTable = dict[int, DecodeRecord]
"""pc -> the latest :data:`DecodeRecord` there, under one fold policy."""


def _decode_at(read_parcel: ParcelReader, pc: int) -> Instruction:
    first = read_parcel(pc)
    needed = instruction_length(first)
    parcels = [first] + [
        read_parcel(pc + i * PARCEL_BYTES) for i in range(1, needed)
    ]
    return decode_instruction(parcels)


def decode_entry(read_parcel: ParcelReader, pc: int,
                 policy: FoldPolicy) -> DecodedEntry:
    """Decode the cache entry starting at ``pc``.

    Reads one instruction; when it is a non-branch, peeks at the following
    instruction and folds it in if the policy allows.
    """
    first = _decode_at(read_parcel, pc)

    if first.is_branch:
        if not policy.next_address_fields:
            # next-address-field ablation: the target is not precomputed;
            # the EU discovers it at the RR stage like a dynamic target
            return DecodedEntry(pc, None, first, None, None,
                                first.length_bytes())
        next_pc, alt_pc = compute_next_pcs(pc, None, first,
                                           first.length_bytes())
        return DecodedEntry(pc, None, first, next_pc, alt_pc,
                            first.length_bytes())

    follower_pc = pc + first.length_bytes()
    try:
        follower = _decode_at(read_parcel, follower_pc)
    except (EncodingError, ValueError):
        follower = None  # end of code / data after code: nothing to fold
    if (follower is not None and follower.is_branch
            and policy.can_fold(first, follower)):
        length = first.length_bytes() + follower.length_bytes()
        next_pc, alt_pc = compute_next_pcs(pc, first, follower, length)
        return DecodedEntry(pc, first, follower, next_pc, alt_pc, length)

    next_pc, alt_pc = compute_next_pcs(pc, first, None, first.length_bytes())
    return DecodedEntry(pc, first, None, next_pc, alt_pc,
                        first.length_bytes())


def decode_span(read_parcel: ParcelReader, entry: DecodedEntry) -> int:
    """How many parcels :func:`decode_entry` read to produce ``entry``.

    They are contiguous from ``entry.address``: the entry itself, plus —
    after an unfolded non-branch — the follower it peeked at (just that
    follower's first parcel when its length does not decode). The entry
    is a pure function of these parcels and the policy.
    """
    if entry.body is None or entry.branch is not None:
        return entry.length_bytes // PARCEL_BYTES
    body = entry.body.length_parcels()
    try:
        follower = instruction_length(
            read_parcel(entry.address + body * PARCEL_BYTES))
    except (EncodingError, ValueError):
        follower = 1
    return body + follower


class BranchFolder:
    """Stateless convenience wrapper binding a policy to a parcel source."""

    def __init__(self, read_parcel: ParcelReader, policy: FoldPolicy) -> None:
        self.read_parcel = read_parcel
        self.policy = policy

    def decode(self, pc: int) -> DecodedEntry:
        """Decode the entry at ``pc`` under the bound policy."""
        return decode_entry(self.read_parcel, pc, self.policy)

    def parcels_needed(self, pc: int) -> int:
        """How many parcels the decoder must see to produce the entry at
        ``pc`` — the PDU's five-parcel QA..QE window requirement.

        A 1- or 3-parcel non-branch needs one extra parcel of lookahead to
        test for a foldable branch; five-parcel instructions and branches
        need only themselves.
        """
        first = self.read_parcel(pc)
        needed = instruction_length(first)
        if (self.policy.enabled
                and not is_branch_parcel(first)
                and needed in self.policy.body_lengths):
            # peek the follower's first parcel to decide folding
            return needed + 1
        return needed

    def lookup(self, table: DecodeTable, pc: int) -> DecodeRecord | None:
        """``table``'s record at ``pc``, if every parcel it read still
        reads the same through this folder's reader; else None.

        The entry is a pure function of those parcels and the policy, so
        a record that passes is exactly what a fresh decode would give.
        """
        record = table.get(pc)
        if record is None:
            return None
        read = self.read_parcel
        address = pc
        for parcel in record[0]:
            if read(address) != parcel:
                return None
            address += PARCEL_BYTES
        return record

    def decode_into(self, table: DecodeTable, pc: int,
                    needed: int) -> DecodedEntry:
        """Decode the entry at ``pc`` afresh and record it in ``table``
        (replacing any record there), with ``needed`` as its
        :meth:`parcels_needed`. Undecodable bytes raise
        :class:`EncodingError` and leave the table as it was."""
        entry = self.decode(pc)
        read = self.read_parcel
        table[pc] = (tuple(read(pc + i * PARCEL_BYTES)
                           for i in range(decode_span(read, entry))),
                     needed, entry)
        return entry
