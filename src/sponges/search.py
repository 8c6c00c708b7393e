"""Scanner for the two open questions about h-vectors of acyclic sponges:
are they always symmetric (h_i = h_{n-i}), and always nonnegative?

`scan` walks a stream of sponges; each acyclic one gets its h-vector and the
two verdicts, non-acyclic ones are counted but carry no verdicts (the
questions are posed for acyclic sponges only).  `scan_fvector_space` sweeps
raw (f, b) grids with b recovered from the Euler relation; hits there are
labelled "no known sponge realization" rather than counterexamples, since a
bare f-vector need not come from any sponge.

Records are keyed by a canonical identifier, so summaries are independent
of stream order and reruns are byte-identical.  A checkpoint file (JSON
lines, one record each) makes long scans resumable: already-recorded keys
are skipped and their records merged back into the summary.  A torn final
line (an append cut short) is dropped and truncated away; any other line
that does not parse, or has a field of the wrong type, raises
CorruptCheckpoint.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Iterable

from .enumerative import (
    ExtendedFVector,
    NegativeB,
    b_from_euler,
    hvector_of,
)
from .sponge import SpongeComplex, check_acyclic, check_local_model, validate_sponge


class CorruptCheckpoint(ValueError):
    """A complete checkpoint line that is not a scan record."""


# the JSON types a checkpoint record's fields may have; lists hold integers
_FIELD_TYPES = {
    "n": (int,), "f": (list,), "h": (list,), "b": (int, type(None)), "acyclic": (bool,),
    "realized": (bool,), "symmetric": (bool, type(None)), "nonnegative": (bool, type(None)),
    "local_model": (bool, type(None)), "error": (str, type(None)),
}


@dataclass(frozen=True)
class ScanRecord:
    identifier: str
    n: int
    f: tuple[int, ...] | None = None
    b: int | None = None
    h: tuple[int, ...] | None = None
    symmetric: bool | None = None
    nonnegative: bool | None = None
    acyclic: bool = False
    local_model: bool | None = None
    error: str | None = None
    realized: bool = True  # False for raw f-vector grid points

    def to_json(self) -> dict:
        out = {"identifier": self.identifier, "n": self.n, "acyclic": self.acyclic,
               "realized": self.realized}
        for key in ("f", "b", "h", "symmetric", "nonnegative", "local_model", "error"):
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ScanRecord":
        def tup(key):
            return tuple(data[key]) if key in data else None
        if not isinstance(data["identifier"], str):
            raise TypeError("identifier must be a string")
        for key, kinds in _FIELD_TYPES.items():  # exact types: a bool is not an int
            value = data.get(key)
            if key in data and (type(value) not in kinds or type(value) is list
                                and any(type(v) is not int for v in value)):
                raise TypeError(f"{key} has the wrong type: {value!r}")
        return cls(
            identifier=data["identifier"],
            n=data["n"],
            f=tup("f"),
            b=data.get("b"),
            h=tup("h"),
            symmetric=data.get("symmetric"),
            nonnegative=data.get("nonnegative"),
            acyclic=data.get("acyclic", False),
            local_model=data.get("local_model"),
            error=data.get("error"),
            realized=data.get("realized", True),
        )


@dataclass
class ScanSummary:
    total: int = 0
    acyclic_count: int = 0
    unrealized_count: int = 0  # raw f-vector grid points, never sponges
    ds_failures: list = field(default_factory=list)      # symmetry failures
    nonneg_failures: list = field(default_factory=list)
    errors: int = 0
    records: list = field(default_factory=list)

    def add(self, record: ScanRecord) -> None:
        self.total += 1
        self.records.append(record)
        if record.error is not None:
            self.errors += 1
            return
        if not record.realized:
            self.unrealized_count += 1
        elif record.acyclic:
            self.acyclic_count += 1
        if record.acyclic:
            if record.symmetric is False:
                self.ds_failures.append(record)
            if record.nonnegative is False:
                self.nonneg_failures.append(record)

    def finalize(self) -> None:
        self.records.sort(key=lambda r: r.identifier)
        self.ds_failures.sort(key=lambda r: r.identifier)
        self.nonneg_failures.sort(key=lambda r: r.identifier)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "acyclic_count": self.acyclic_count,
            "unrealized_count": self.unrealized_count,
            "errors": self.errors,
            "ds_failures": [r.identifier for r in self.ds_failures],
            "nonneg_failures": [r.identifier for r in self.nonneg_failures],
            "records": [r.to_json() for r in self.records],
        }


class _Checkpoint:
    """Append-only JSONL store of completed records.

    One append handle, opened at the first write, serves the whole scan;
    each record is flushed as it is written, and `close` releases it.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.seen: dict[str, ScanRecord] = {}
        self._handle = None
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            complete = data[: data.rfind(b"\n") + 1]
            for lineno, line in enumerate(complete.splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    record = ScanRecord.from_json(json.loads(line))
                except (ValueError, KeyError, TypeError) as err:
                    raise CorruptCheckpoint(
                        f"checkpoint {path} line {lineno} is not a scan record: {err}"
                    ) from err
                self.seen[record.identifier] = record
            if len(complete) < len(data):
                # torn final line: drop it so the next append starts cleanly
                with open(path, "r+b") as fh:
                    fh.truncate(len(complete))

    def has(self, identifier: str) -> bool:
        return identifier in self.seen

    def write(self, record: ScanRecord) -> None:
        if self.path:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def classify_sponge(z: SpongeComplex, identifier: str | None = None) -> ScanRecord:
    """One sponge -> one record; failures land in the record, never raise."""
    ident = identifier or z.name or "unnamed"
    try:
        if not validate_sponge(z).is_valid:
            return ScanRecord(identifier=ident, n=z.n, error="invalid sponge")
        local = check_local_model(z).passed
        report = check_acyclic(z)
        if not report.is_acyclic:
            return ScanRecord(
                identifier=ident, n=z.n, f=z.face_counts(),
                acyclic=False, local_model=local,
            )
        fv = ExtendedFVector(n=z.n, f=z.face_counts(), b=report.b_number)
        hv = hvector_of(fv)
        return ScanRecord(
            identifier=ident, n=z.n, f=fv.f, b=fv.b, h=hv.h,
            symmetric=hv.symmetric, nonnegative=hv.nonnegative,
            acyclic=True, local_model=local,
        )
    except Exception as err:  # per-item errors must never abort a scan
        return ScanRecord(identifier=ident, n=z.n, error=f"{type(err).__name__}: {err}")


def _run(
    items: Iterable[tuple[str, Callable[[], ScanRecord]]], checkpoint_path: str | None
) -> ScanSummary:
    """Summarize (identifier, make-record) pairs, reusing records the checkpoint holds."""
    checkpoint = _Checkpoint(checkpoint_path)
    summary = ScanSummary()
    try:
        for ident, make_record in items:
            if checkpoint.has(ident):
                record = checkpoint.seen[ident]
            else:
                record = make_record()
                checkpoint.write(record)
            summary.add(record)
    finally:
        checkpoint.close()
    summary.finalize()
    return summary


def scan(
    family: Iterable[SpongeComplex], checkpoint_path: str | None = None
) -> ScanSummary:
    """Classify every sponge in the stream; see module docstring."""

    def items():
        seen = set()
        for z in family:
            ident = z.name or f"sponge-{len(seen)}"
            if ident not in seen:
                seen.add(ident)
                yield ident, partial(classify_sponge, z, ident)

    return _run(items(), checkpoint_path)


def _grid_point_record(ident: str, n: int, f: tuple[int, ...]) -> ScanRecord:
    try:
        b = b_from_euler(f, n)
    except NegativeB:
        return ScanRecord(identifier=ident, n=n, f=f, error="NegativeB", realized=False)
    hv = hvector_of(ExtendedFVector(n=n, f=f, b=b))
    return ScanRecord(
        identifier=ident, n=n, f=f, b=b, h=hv.h,
        symmetric=hv.symmetric, nonnegative=hv.nonnegative,
        acyclic=True, realized=False,
    )


def scan_fvector_space(
    n: int, bounds: Iterable[int], checkpoint_path: str | None = None
) -> ScanSummary:
    """Sweep f in [0..bound_i] per dimension with b = b_from_euler(f, n).

    Grid points are not sponges: asymmetric or negative h-vectors found here
    are recorded with realized=False ("no known sponge realization"), never
    as counterexamples to the sponge questions.  Points whose b would be
    negative are skipped with an error record.
    """
    bounds = list(bounds)
    if len(bounds) != n - 1:
        raise ValueError(f"need {n - 1} bounds for n={n}")

    def items():
        for f in product(*(range(b + 1) for b in bounds)):
            ident = f"fspace-n{n}-" + "-".join(map(str, f))
            yield ident, partial(_grid_point_record, ident, n, f)

    return _run(items(), checkpoint_path)
