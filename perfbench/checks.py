"""Correctness checks on each workload's outputs.

Every check compares the program's output with a value the benchmark
computed on its own from the inputs it fed in, or with a property the
method must have.  None compares with a stored copy of earlier output,
and none depends on host timing.  Each returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: One replayed request as the benchmark saw it: (time, lba, length, is_write).
Request = Tuple[float, int, int, bool]

#: At most this many examples are quoted per failed check.
_EXAMPLES = 3


def _quote(problems: List[str], head: str, examples: Sequence[object]) -> None:
    if examples:
        problems.append(f"{head}: {list(examples[:_EXAMPLES])}"
                        f"{' ...' if len(examples) > _EXAMPLES else ''}")


def write_model(requests: Sequence[Request],
                lockdowns: Iterable[int]) -> Tuple[int, int, Dict[int, float]]:
    """Replay the lockdown rule on the benchmark's own request log.

    The detector sees a request header before the FTL runs it, so when
    that header raises the alarm the device is already read-only for the
    request's own blocks: every block of a write request after which the
    device was found locked is dropped.  Returns ``(dropped, accepted,
    last accepted write time per LBA)``.
    """
    locked = set(lockdowns)
    dropped = accepted = 0
    last_write: Dict[int, float] = {}
    for index, (time, lba, length, is_write) in enumerate(requests):
        if not is_write:
            continue
        if index in locked:
            dropped += length
            continue
        accepted += length
        for block in range(lba, lba + length):
            last_write[block] = time
    return dropped, accepted, last_write


def check_write_path(
    requests: Sequence[Request],
    lockdowns: Iterable[int],
    device: Mapping[str, object],
) -> List[str]:
    """Dropped/accepted block counts, final mapping and NAND program count.

    ``device`` holds what the program reports: ``dropped_writes``,
    ``host_writes``, ``gc_page_copies``, ``nand_programs``,
    ``mapped_count`` and ``resolved`` — for every LBA any write request
    named, the ``(out-of-band lba, written_at)`` of the page the FTL's
    public read returns, or None when the LBA is unmapped.
    """
    problems: List[str] = []
    dropped, accepted, last_write = write_model(requests, lockdowns)
    if device["dropped_writes"] != dropped:
        problems.append(f"dropped writes {device['dropped_writes']} != "
                        f"{dropped} blocks of lockdown write requests")
    if device["host_writes"] != accepted:
        problems.append(f"FTL host writes {device['host_writes']} != "
                        f"{accepted} accepted blocks")
    programs = device["host_writes"] + device["gc_page_copies"]
    if device["nand_programs"] != programs:
        problems.append(f"NAND programs {device['nand_programs']} != host "
                        f"writes + GC copies ({programs})")
    if device["mapped_count"] != len(last_write):
        problems.append(f"{device['mapped_count']} mapped LBAs != "
                        f"{len(last_write)} distinct LBAs written")
    resolved: Mapping[int, Optional[Tuple[int, float]]] = device["resolved"]
    wrong = []
    for lba, page in resolved.items():
        expected = last_write.get(lba)
        if expected is None:
            if page is not None:
                wrong.append((lba, page, None))
        elif page != (lba, expected):
            wrong.append((lba, page, (lba, expected)))
    missing = [lba for lba in last_write if lba not in resolved]
    _quote(problems, "LBAs resolving to the wrong page "
           "(lba, got, want)", wrong)
    _quote(problems, "written LBAs never resolved", missing)
    return problems


def slice_blocks(requests: Sequence[Request],
                 slice_duration: float) -> Dict[int, int]:
    """Blocks (read + written) per detector slice, from the request log."""
    counts: Dict[int, int] = {}
    for time, _lba, length, _is_write in requests:
        index = int(time // slice_duration)
        counts[index] = counts.get(index, 0) + length
    return counts


def check_slice_io(events: Sequence[Tuple[int, float]],
                   counts: Mapping[int, int]) -> List[str]:
    """Each evaluated slice's IO feature equals the benchmark's block count.

    ``events`` holds ``(slice_index, io)`` for every slice the detector
    closed, evaluated or fast-forwarded.
    """
    problems: List[str] = []
    wrong = [(index, io, counts.get(index, 0)) for index, io in events
             if io != counts.get(index, 0)]
    _quote(problems, "slices whose IO feature is not the block count "
           "(slice, io, blocks)", wrong)
    closed = {index for index, _io in events}
    unseen = sorted(index for index, blocks in counts.items()
                    if blocks and index not in closed)
    _quote(problems, "slices with I/O the detector never closed", unseen)
    return problems


def check_slice_counts(closed: int, fast_forwarded: int, final_time: float,
                       slice_duration: float, gap_seconds: float) -> List[str]:
    """Slices closed match the trace's time span; fast-forward stays in the gap.

    ``closed`` counts slices evaluated one by one, ``fast_forwarded`` the
    idle slices skipped in bulk; together they are every slice boundary
    the trace's final time has crossed.
    """
    problems: List[str] = []
    implied = int(final_time // slice_duration)
    if closed + fast_forwarded != implied:
        problems.append(f"{closed} evaluated + {fast_forwarded} "
                        f"fast-forwarded slices != {implied} slices in "
                        f"{final_time:.3f} s")
    gap_slices = int(gap_seconds // slice_duration)
    if fast_forwarded > gap_slices:
        problems.append(f"{fast_forwarded} fast-forwarded slices exceed the "
                        f"{gap_slices}-slice idle gap")
    return problems


def check_recovery(sample: str, alarm_raised: bool,
                   expected: Mapping[int, bytes],
                   readback: Mapping[int, bytes],
                   evictions: int) -> List[str]:
    """The paper's perfect-recovery property, audited over every block."""
    problems: List[str] = []
    if not alarm_raised:
        problems.append(f"{sample}: no alarm")
    if evictions:
        problems.append(f"{sample}: recovery queue evicted {evictions} "
                        f"entries inside the window")
    wrong = [lba for lba, payload in expected.items()
             if readback.get(lba) != payload]
    _quote(problems, f"{sample}: blocks not restored bit-exact", wrong)
    return problems


def check_fleet(
    records: Sequence[Mapping[str, object]],
    devices: int,
    rederived: Mapping[int, Mapping[str, object]],
    file_header: Mapping[str, object],
    file_records: Sequence[Mapping[str, object]],
    plan: Mapping[str, object],
) -> List[str]:
    """Index order, no error verdict, re-derived devices, file round trip."""
    problems: List[str] = []
    order = [record.get("index") for record in records]
    if order != list(range(devices)):
        problems.append(f"records out of index order or missing: "
                        f"{order[:8]}{' ...' if len(order) > 8 else ''}")
    errors = [record.get("index") for record in records
              if record.get("verdict") == "error"]
    _quote(problems, "devices with an error verdict", errors)
    for index, record in rederived.items():
        if index >= len(records) or dict(records[index]) != dict(record):
            fields = sorted(key for key in record
                            if index >= len(records)
                            or records[index].get(key) != record[key])
            problems.append(f"device {index} re-derived in-process differs "
                            f"from its sharded record in {fields}")
    header = {key: file_header.get(key) for key in plan}
    if header != dict(plan):
        problems.append("fleet file header does not decode to the plan")
    if [dict(record) for record in file_records] != \
            [dict(record) for record in records]:
        problems.append("fleet file does not decode to the run's records")
    return problems
