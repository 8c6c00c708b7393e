"""Scanner for the two open questions about h-vectors of acyclic sponges:
are they always symmetric (h_i = h_{n-i}), and always nonnegative?

`scan` walks a stream of sponges; each acyclic one gets its h-vector and the
two verdicts, non-acyclic ones are counted but carry no verdicts (the
questions are posed for acyclic sponges only).  `scan_fvector_space` sweeps
raw (f, b) grids with b recovered from the Euler relation; hits there are
labelled "no known sponge realization" rather than counterexamples, since a
bare f-vector need not come from any sponge.

Records are keyed by a canonical identifier, so summaries are independent
of stream order and reruns are byte-identical.  A grid point costs one
Euler relation and one h-vector, a fixed integer matrix product per n.  A
checkpoint file (JSON lines, one record each, written by one shared encoder
and flushed per record) makes long scans resumable: already-recorded keys
are skipped and their records merged back into the summary.  Each record is
turned into JSON once, for the checkpoint and the summary alike.  A torn final
line (an append cut short) is dropped and truncated away; any other line
that does not parse, or has a field of the wrong type, raises
CorruptCheckpoint, as does a checkpoint that cannot be read or appended to.
"""

from __future__ import annotations

import json
import os
from functools import partial
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .enumerative import ExtendedFVector, _euler_b, hvector_of
from .errors import CorruptCheckpoint, InvalidSponge, NegativeB

if TYPE_CHECKING:  # annotations only: `classify_sponge` imports the sponge layer when it runs
    from .sponge import SpongeComplex


# one encoder for every checkpoint line (json.dumps builds one per call)
_encode = json.JSONEncoder(sort_keys=True).encode

# the JSON types a checkpoint record's fields may have; lists hold integers
_FIELD_TYPES = {
    "n": (int,), "f": (list,), "h": (list,), "b": (int, type(None)), "acyclic": (bool,),
    "realized": (bool,), "symmetric": (bool, type(None)), "nonnegative": (bool, type(None)),
    "local_model": (bool, type(None)), "error": (str, type(None)),
}


class ScanRecord(NamedTuple):
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
        """The fields that are set, tuples as lists; every caller sorts the keys."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in zip(self._fields, self) if value is not None}

    @classmethod
    def from_json(cls, data: dict) -> "ScanRecord":
        identifier = data["identifier"]
        if not isinstance(identifier, str):
            raise TypeError("identifier must be a string")
        fields = {}
        for key, value in data.items():  # exact types: a bool is not an int
            kinds = _FIELD_TYPES.get(key)
            if kinds is None:  # a key that names no field is ignored
                continue
            if type(value) not in kinds or type(value) is list and any(
                    type(v) is not int for v in value):
                raise TypeError(f"{key} has the wrong type: {value!r}")
            fields[key] = tuple(value) if type(value) is list else value
        return cls(identifier, fields.pop("n"), **fields)


class ScanSummary:
    def __init__(self, total: int = 0, acyclic_count: int = 0, unrealized_count: int = 0,
                 ds_failures: list | None = None, nonneg_failures: list | None = None,
                 errors: int = 0, records: list | None = None):
        self.total = total
        self.acyclic_count = acyclic_count
        self.unrealized_count = unrealized_count  # raw f-vector grid points, never sponges
        self.ds_failures = [] if ds_failures is None else ds_failures  # symmetry failures
        self.nonneg_failures = [] if nonneg_failures is None else nonneg_failures
        self.errors = errors
        self.records = [] if records is None else records
        self._encoded: list = []  # to_json per record

    def __eq__(self, other) -> bool:
        if type(other) is not ScanSummary:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k != "_encoded")
        return f"ScanSummary({shown})"

    def add(self, record: ScanRecord, encoded: dict) -> None:
        """Count ``record``, whose `ScanRecord.to_json` is ``encoded``."""
        self.total += 1
        self.records.append(record)
        self._encoded.append(encoded)
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
        pairs = sorted(zip(self.records, self._encoded), key=lambda pair: pair[0].identifier)
        self.records = [record for record, _ in pairs]
        self._encoded = [encoded for _, encoded in pairs]
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
            "records": list(self._encoded),
        }


class _Checkpoint:
    """Append-only JSONL store of completed records.

    One append handle, opened once the records on file are loaded, before
    any record is computed, serves the whole scan; each record is flushed as
    it is written, and `close` releases it.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.seen: dict[str, ScanRecord] = {}
        self._handle = None
        if path and os.path.exists(path):
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                complete = data[: data.rfind(b"\n") + 1]
                for lineno, line in enumerate(complete.splitlines(), 1):
                    if not line.strip():
                        continue
                    try:
                        record = ScanRecord.from_json(json.loads(line))
                    except (ValueError, KeyError, TypeError, RecursionError) as err:
                        raise CorruptCheckpoint(
                            f"checkpoint {path} line {lineno} is not a scan record: {err}"
                        ) from err
                    self.seen[record.identifier] = record
                if len(complete) < len(data):
                    # torn final line: drop it so the next append starts cleanly
                    with open(path, "r+b") as fh:
                        fh.truncate(len(complete))
            except OSError as err:
                raise CorruptCheckpoint(f"cannot load checkpoint {path}: {err}") from err
        if path:
            try:
                self._handle = open(path, "a", encoding="utf-8")
            except OSError as err:
                raise CorruptCheckpoint(f"cannot append to checkpoint {path}: {err}") from err

    def has(self, identifier: str) -> bool:
        return identifier in self.seen

    def write(self, encoded: dict) -> None:
        """Append one record, given as its `ScanRecord.to_json`, and flush it."""
        if self._handle is not None:
            try:
                self._handle.write(_encode(encoded) + "\n")
                self._handle.flush()
            except OSError as err:
                raise CorruptCheckpoint(f"cannot append to checkpoint {self.path}: {err}") from err

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def classify_sponge(z: SpongeComplex, identifier: str | None = None) -> ScanRecord:
    """One sponge -> one record; failures land in the record, never raise."""
    from .sponge import check_acyclic, check_local_model

    ident = identifier or z.name or "unnamed"
    try:
        local = check_local_model(z).passed  # raises InvalidSponge first
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
    except InvalidSponge:
        return ScanRecord(identifier=ident, n=z.n, error="invalid sponge")
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
            resumed = checkpoint.has(ident)
            record = checkpoint.seen[ident] if resumed else make_record()
            encoded = record.to_json()
            if not resumed:
                checkpoint.write(encoded)
            summary.add(record, encoded)
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
    """One grid point; f, counts from `range`, is checked once, by `ExtendedFVector`."""
    try:
        b = _euler_b(f, n)
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
    if any(b < 0 for b in bounds):
        raise ValueError(f"bounds must be nonnegative, got {bounds}")

    def items():
        for f in product(*(range(b + 1) for b in bounds)):
            ident = f"fspace-n{n}-" + "-".join(map(str, f))
            yield ident, partial(_grid_point_record, ident, n, f)

    return _run(items(), checkpoint_path)
