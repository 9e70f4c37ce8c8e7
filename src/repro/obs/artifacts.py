"""Artifact storage: how observability documents and streams sit on disk.

Every metrics, audit and alert-rules JSON document and every
export, controller and span-trace NDJSON stream is written and read
through this module, so one set of rules holds for all of them:

* writers create missing parent directories and emit strict JSON — a
  NaN or infinity raises :class:`~repro.errors.ObservabilityError`
  naming the artifact instead of landing in the file as a token strict
  parsers reject;
* a file that cannot be read or parsed raises an error naming it
  (``repro obs validate`` exits 2 on it), while schema problems come
  back from the format's validator as a problem list (exit 1);
* stream writers flush once per record, so a killed writer leaves at
  most one partial final line. Readers asked to tolerate truncation drop
  that line; a partial line anywhere else is an error naming its line.

The CLI renders every :class:`ObservabilityError` as ``error: ...``
with exit code 2, never a raw traceback.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, List, Optional, Type

from repro.errors import ObservabilityError


def ensure_parent_dir(
    path,
    what: str = "artifact",
    exc_type: Type[Exception] = ObservabilityError,
) -> None:
    """Create the parent directory of ``path`` if it is missing.

    Raises ``exc_type`` (default :class:`ObservabilityError`) when the
    directory cannot be created — e.g. a path component is an existing
    file, or permissions forbid it.
    """
    directory = os.path.dirname(os.fspath(path))
    if not directory:
        return
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise exc_type(f"cannot create directory for {what} {path}: {exc}") from exc


def _open_for_write(path, what: str):
    ensure_parent_dir(path, what)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot write {what} {path}: {exc}") from exc


def _strict_dumps(value: Any, what: str, **layout: Any) -> str:
    try:
        return json.dumps(value, allow_nan=False, **layout)
    except ValueError as exc:
        raise ObservabilityError(f"{what} is not strict JSON: {exc}") from exc


def check(problems: List[str], what: str) -> None:
    """Raise :class:`ObservabilityError` if any problems were found."""
    if problems:
        preview = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ObservabilityError(f"{what} failed validation: {preview}{more}")


# ------------------------------------------------------------ JSON documents
def read_json(
    path,
    what: str,
    validate: Optional[Callable[[Any], List[str]]],
    exc_type: Type[Exception] = ObservabilityError,
) -> Any:
    """Read one JSON document.

    Raises ``exc_type`` when the file cannot be read or is not JSON.
    With ``validate``, its problem list must also be empty, else
    :class:`ObservabilityError` lists the problems.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise exc_type(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise exc_type(f"{path}: invalid JSON ({exc})") from exc
    if validate is not None:
        check(validate(document), str(path))
    return document


def write_json(path, document: Any, what: str) -> None:
    """Write ``document`` as two-space-indented strict JSON plus a newline.

    The document is serialized before the file is opened, so a value
    strict JSON cannot carry leaves any existing file untouched.
    """
    payload = _strict_dumps(document, what, indent=2)
    with _open_for_write(path, what) as handle:
        handle.write(payload + "\n")


# ------------------------------------------------------------ NDJSON streams
def read_ndjson(path, what: str, tolerate_truncation: bool) -> List[Any]:
    """Read an NDJSON stream into its records, skipping blank lines.

    With ``tolerate_truncation`` a final line that is not JSON (a writer
    killed mid-line) is dropped. Any other line that is not JSON raises
    :class:`ObservabilityError` naming its line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, ValueError) as exc:
        raise ObservabilityError(f"cannot read {what} {path}: {exc}") from exc
    records: List[Any] = []
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            records.append(json.loads(raw))
        except ValueError as exc:
            if tolerate_truncation and number == len(lines):
                break
            raise ObservabilityError(
                f"{path}: line {number} is invalid JSON ({exc})"
            ) from exc
    return records


def validate_ndjson(
    path, what: str, validate_record: Callable[[Any, str], List[str]]
) -> List[str]:
    """Validate a recorded stream: ``validate_record(record, where)`` for
    each record, plus strictly increasing ``seq`` numbers.

    Returns the problem list (empty = valid). Raises
    :class:`ObservabilityError` when the stream cannot be read or parsed;
    a truncated final line is tolerated.
    """
    records = read_ndjson(path, what, tolerate_truncation=True)
    if not records:
        return [f"{path}: no {what}"]
    problems: List[str] = []
    previous_seq = 0
    for index, record in enumerate(records):
        where = f"records[{index}]"
        problems.extend(validate_record(record, where))
        seq = record.get("seq") if isinstance(record, dict) else None
        if isinstance(seq, int) and not isinstance(seq, bool):
            if seq <= previous_seq:
                problems.append(
                    f"{where}.seq: {seq} not greater than previous {previous_seq}"
                )
            previous_seq = seq
    return problems


class NdjsonWriter:
    """Append-only NDJSON stream, one strict-JSON line per record, flushed
    as it is written.

    With ``max_bytes`` the stream rotates: when the next line would push
    the file past it, the file is renamed to ``<path>.1`` (replacing any
    previous generation) and a fresh one opened, so disk use stays under
    about 2×``max_bytes`` however long the run. Writes after
    :meth:`close` are dropped.
    """

    def __init__(self, path, what: str, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 4096:
            raise ObservabilityError(f"max_bytes must be >= 4096, got {max_bytes}")
        self.path = os.fspath(path)
        self.what = what
        self.max_bytes = max_bytes
        self.rotations = 0
        self.records_written = 0
        self._bytes = 0
        self._handle = _open_for_write(self.path, what)

    def write(self, record: Any) -> None:
        if self._handle is None:
            return
        line = (
            _strict_dumps(record, f"{self.what} record", separators=(",", ":"))
            + "\n"
        )
        if (
            self.max_bytes is not None
            and self._bytes
            and self._bytes + len(line) > self.max_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._bytes += len(line)
        self.records_written += 1

    def _rotate(self) -> None:
        self.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot rotate {self.what} {self.path}: {exc}"
            ) from exc
        self._handle = _open_for_write(self.path, self.what)
        self._bytes = 0
        self.rotations += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None
