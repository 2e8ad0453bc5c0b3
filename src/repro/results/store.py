"""Schema-versioned, append-only longitudinal results store.

The paper's claims are longitudinal: stall-cause shares and mitigation
wins (Tables 8/9) only mean something when tracked across many runs,
workloads, and policy configurations.  Every surface of this repo that
produces a number — benchmarks, TAPO analyses, experiment runs, and
live-daemon window flushes — can append one :dfn:`result record` here,
and the trend engine (:mod:`repro.results.trends`) and dashboard
(:mod:`repro.results.dashboard`) read them back.

**Format.**  One JSON object per line (JSONL).  Every record carries::

    {
      "schema": 1,            # bumped on incompatible changes
      "run_id": "c0ffee...",  # groups records from one process run
      "seq": 0,               # per-run monotonic counter
      "ts": 1754700000.0,     # wall-clock unix seconds
      "kind": "bench",        # bench | analysis | experiment | live
      "name": "tapo_throughput",
      "git_sha": "abc123..",  # HEAD at record time (None outside git)
      "config_hash": "9f..",  # hash of the producing configuration
      "wall_time": 12.3,      # seconds the producing run took
      "metrics": {...},       # flat {name: float}
      "causes": {...},        # stall-cause time shares (optional)
      "rankings": {...},      # {scenario: [policy, ...]} (optional)
      "faults": {...},        # fault counters (optional)
      "meta": {...}           # free-form context (optional)
    }

**Durability and concurrency.**  Appends are a single ``write()`` of
one newline-terminated line on an ``O_APPEND`` descriptor, flushed
immediately — interleaved writers (two daemon shards, a bench run next
to a daemon) produce interleaved *whole lines*, never spliced ones,
and a crash mid-append can only tear the final line.

**Corruption tolerance.**  :meth:`ResultsStore.load` validates every
line and counts damage against a :class:`~repro.errors.ErrorBudget`
(default lenient): garbage lines, torn tails, and schema-invalid
records are skipped and counted, never silently dropped.  A strict
budget raises :class:`~repro.errors.ParseError` at the first bad line.

**Merging.**  Shard stores merge associatively and commutatively:
records are deduplicated by canonical JSON identity and ordered by
``(ts, run_id, seq, canonical-json)``, a total order, so
``merge(a, b) == merge(b, a)`` byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
import uuid
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..errors import ErrorBudget, ParseError
from ..persist import atomic_write

#: Record schema version (bump on incompatible record-shape changes).
SCHEMA_VERSION = 1

#: Fields every valid record must carry, with their required types.
_REQUIRED = {
    "schema": int,
    "run_id": str,
    "seq": int,
    "ts": (int, float),
    "kind": str,
    "name": str,
}

#: Optional mapping-valued sections (validated as dicts when present).
_SECTIONS = ("metrics", "causes", "rankings", "faults", "meta")


def new_run_id() -> str:
    """A fresh process-run identifier (random, collision-safe)."""
    return uuid.uuid4().hex[:16]


def current_git_sha(cwd: "str | Path | None" = None) -> str | None:
    """HEAD commit of the enclosing git checkout, or ``None``.

    Best-effort: records written outside a checkout (or without a git
    binary) simply carry ``git_sha: null``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def config_hash(config) -> str:
    """Deterministic short hash of a configuration object.

    Accepts anything JSON-ish: dicts, dataclass-like objects with
    ``__dict__``, frozen configs with ``dataclasses.asdict`` shape, or
    plain strings.  Unserializable leaves fall back to ``repr`` so the
    hash stays total — two equal configs always hash equal, two
    different ones almost surely differ.
    """
    canonical = json.dumps(
        config, sort_keys=True, default=_config_leaf, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _config_leaf(obj):
    if hasattr(obj, "__dataclass_fields__"):
        return {
            name: getattr(obj, name) for name in obj.__dataclass_fields__
        }
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return repr(obj)


def flatten_metrics(data, prefix: str = "", sep: str = "_") -> dict:
    """Flatten nested dicts of numbers into ``{path: float}``.

    The bench emitters produce nested JSON (``{"decode":
    {"columnar_kpps": ...}}``); the store schema wants flat metric
    names (``decode_columnar_kpps``).  Booleans become 0.0/1.0;
    non-numeric leaves are dropped (they belong in ``meta``).
    """
    flat: dict[str, float] = {}
    if not isinstance(data, dict):
        return flat
    for key, value in data.items():
        name = f"{prefix}{sep}{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=name, sep=sep))
        elif isinstance(value, bool):
            flat[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            flat[name] = float(value)
    return flat


def validate_record(record) -> bool:
    """Whether ``record`` is a well-formed store record."""
    if not isinstance(record, dict):
        return False
    for field_name, types in _REQUIRED.items():
        value = record.get(field_name)
        if not isinstance(value, types) or isinstance(value, bool):
            return False
    if record["schema"] > SCHEMA_VERSION or record["schema"] < 1:
        return False
    for section in _SECTIONS:
        if section in record and not isinstance(record[section], dict):
            return False
    return True


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _sort_key(record: dict) -> tuple:
    return (
        float(record.get("ts") or 0.0),
        str(record.get("run_id") or ""),
        int(record.get("seq") or 0),
        _canonical(record),
    )


def merge_records(*record_lists: Iterable[dict]) -> list[dict]:
    """Merge record collections associatively and commutatively.

    Deduplicates by canonical JSON identity (the same record appended
    to two shards counts once) and sorts by the total order
    ``(ts, run_id, seq, canonical)``, so any grouping or ordering of
    the inputs yields the identical output list.
    """
    seen: dict[str, dict] = {}
    for records in record_lists:
        for record in records:
            seen[_canonical(record)] = record
    return sorted(seen.values(), key=_sort_key)


class ResultsStore:
    """Append-only JSONL store of longitudinal result records.

    Parameters
    ----------
    path:
        The JSONL file (created on first append; parents too).
    errors:
        Default :class:`~repro.errors.ErrorBudget` (or spec string)
        for :meth:`load`.  Defaults to lenient — a longitudinal store
        outlives the code that wrote its oldest records, so reading
        must survive damage by default.
    run_id:
        Identifier grouping this process's appends; autogenerated when
        omitted.
    git_sha:
        Override the recorded commit (``None`` skips git discovery —
        pass explicitly in tests for determinism).
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        errors: "ErrorBudget | str | None" = None,
        run_id: str | None = None,
        git_sha: "str | None | object" = "auto",
    ):
        self.path = Path(path)
        self.errors = (
            ErrorBudget.lenient()
            if errors is None
            else ErrorBudget.parse(errors)
        )
        self.run_id = run_id or new_run_id()
        self.git_sha = (
            current_git_sha() if git_sha == "auto" else git_sha
        )
        self._seq = 0
        self._file = None
        #: Wall-clock time of the last successful append (None before
        #: the first) — the daemon's /healthz surfaces the age.
        self.last_append_ts: float | None = None
        self.records_appended = 0
        #: Damage found by the most recent :meth:`load`.
        self.corrupt_lines = 0

    # -- record construction -------------------------------------------
    def record(
        self,
        kind: str,
        name: str,
        *,
        metrics: dict | None = None,
        causes: dict | None = None,
        rankings: dict | None = None,
        faults: dict | None = None,
        wall_time: float | None = None,
        config=None,
        meta: dict | None = None,
        ts: float | None = None,
    ) -> dict:
        """Build (without appending) one schema-complete record."""
        record = {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "seq": self._seq,
            "ts": float(ts) if ts is not None else time.time(),
            "kind": str(kind),
            "name": str(name),
            "git_sha": self.git_sha,
        }
        if config is not None:
            record["config_hash"] = config_hash(config)
        if wall_time is not None:
            record["wall_time"] = float(wall_time)
        if metrics:
            record["metrics"] = flatten_metrics(metrics)
        if causes:
            record["causes"] = {
                str(k): float(v) for k, v in causes.items()
            }
        if rankings:
            record["rankings"] = {
                str(k): [str(p) for p in order]
                for k, order in rankings.items()
            }
        if faults:
            record["faults"] = flatten_metrics(faults)
        if meta:
            record["meta"] = meta
        return record

    def append(self, kind: str, name: str, **fields) -> dict:
        """Build and atomically append one record; returns it."""
        record = self.record(kind, name, **fields)
        self.append_record(record)
        return record

    def append_record(self, record: dict) -> None:
        """Append a pre-built record as one atomic line."""
        if not validate_record(record):
            raise ValueError(f"refusing to append invalid record: {record!r}")
        line = _canonical(record) + "\n"
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # O_APPEND: concurrent writers interleave whole lines.
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(line)
        self._file.flush()
        self._seq += 1
        self.records_appended += 1
        self.last_append_ts = time.time()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -------------------------------------------------------
    def iter_records(
        self, *, errors: "ErrorBudget | str | None" = None
    ) -> Iterator[dict]:
        """Yield valid records in file order, tolerating damage.

        Invalid lines (garbage bytes, torn tail, schema violations)
        are counted on :attr:`corrupt_lines` and checked against the
        budget *as encountered* — a strict budget raises
        :class:`~repro.errors.ParseError` at the first bad line, a
        ``budget:N`` one after N.
        """
        budget = (
            self.errors if errors is None else ErrorBudget.parse(errors)
        )
        self.corrupt_lines = 0
        lines = 0
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8", errors="replace") as fh:
            for raw in fh:
                lines += 1
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if record is None or not validate_record(record):
                    self.corrupt_lines += 1
                    if not budget.allows(self.corrupt_lines, lines):
                        raise ParseError(
                            f"{self.path}: corrupt result record at line "
                            f"{lines} (budget: {budget.describe()})"
                        )
                    continue
                yield record

    def load(self, *, errors: "ErrorBudget | str | None" = None) -> list[dict]:
        """All valid records, in file order (see :meth:`iter_records`)."""
        return list(self.iter_records(errors=errors))

    # -- maintenance ---------------------------------------------------
    def compact(self, *, keep_last: int | None = None) -> dict:
        """Rewrite the store atomically, dropping damage.

        Loads leniently, optionally keeps only the newest ``keep_last``
        records per ``(kind, name)`` group (by the total merge order),
        and replaces the file via tmp + rename — a reader or appender
        racing the compaction sees either the old file or the new one,
        never a half-written state.  Returns counts.
        """
        records = self.load(errors=ErrorBudget.lenient())
        dropped_corrupt = self.corrupt_lines
        records = merge_records(records)  # dedup + total order
        dropped_excess = 0
        if keep_last is not None:
            groups: dict[tuple, list[dict]] = {}
            for record in records:
                groups.setdefault(
                    (record["kind"], record["name"]), []
                ).append(record)
            kept: list[dict] = []
            for group in groups.values():
                dropped_excess += max(0, len(group) - keep_last)
                kept.extend(group[-keep_last:])
            records = merge_records(kept)
        self.close()
        atomic_write(
            self.path, "".join(_canonical(r) + "\n" for r in records)
        )
        return {
            "records": len(records),
            "dropped_corrupt": dropped_corrupt,
            "dropped_excess": dropped_excess,
        }

    @classmethod
    def merge_shards(
        cls,
        paths: Iterable["str | Path"],
        out: "str | Path",
        *,
        errors: "ErrorBudget | str | None" = "lenient",
    ) -> int:
        """Merge shard stores into ``out`` (associative, atomic).

        Returns the merged record count.  ``out`` may be one of the
        inputs; the rewrite is tmp + rename.
        """
        shards = [
            cls(path, errors=errors, git_sha=None).load() for path in paths
        ]
        merged = merge_records(*shards)
        out = Path(out)
        atomic_write(out, "".join(_canonical(r) + "\n" for r in merged))
        return len(merged)


# -- adapters from the repo's existing number producers ----------------
def record_fields_from_registry(registry) -> dict:
    """Flatten a :class:`~repro.obs.metrics.MetricsRegistry` into
    ``record(...)`` keyword fields (everything lands in ``metrics``)."""
    return {
        "metrics": {
            metric.name: float(metric.value) for metric in registry
        }
    }


def record_fields_from_report(report) -> dict:
    """Summarize a :class:`~repro.core.report.ServiceReport` into
    ``record(...)`` keyword fields (metrics + stall-cause shares)."""
    summary = report.summary_metrics()
    causes = summary.pop("causes", {})
    return {"metrics": summary, "causes": causes}
