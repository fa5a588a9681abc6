"""Declarative experiment specs: operating points and sweep grids.

A :class:`Point` names one simulation exactly — program, machine,
window, memory differential, issue widths, partition strategy, code
expansion and memory-system variant. A :class:`Sweep` is a declarative
grid over any subset of those fields; iterating it yields the points of
the cartesian product (plus optional *zipped* axes for co-varying
fields, e.g. the AU/DU issue-width split whose two widths must sum to
the combined width).

Both are frozen and hashable: a point is a cache key, and
:func:`point_digest` turns (point, scale, latencies) into the stable
content address used by the :class:`~repro.api.session.Session` disk
cache. Sweeps round-trip through plain dicts (:meth:`Sweep.to_dict` /
:meth:`Sweep.from_dict`) and can be loaded from TOML or JSON files, so
a whole experiment fits in a config file::

    name = "dm-vs-swsm-memory"

    [base]
    program = "mdg"
    window = 32
    memory_differential = 60

    [axes]
    machine = ["dm", "swsm"]
    memory = [{kind = "fixed"}, {kind = "bypass", entries = 64},
              {kind = "cache"}]
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache
from pathlib import Path

from ..config import LatencyModel
from ..errors import ConfigError
from ..memory import (
    BankedMemory,
    BypassBuffer,
    CacheMemory,
    FixedLatencyMemory,
    MemorySystem,
    StreamPrefetcher,
    hierarchy_levels,
)

__all__ = [
    "MemorySpec",
    "Point",
    "Sweep",
    "UNLIMITED",
    "load_sweep",
    "point_digest",
    "point_from_dict",
    "point_to_dict",
    "profile_digest",
    "source_digest",
]

#: Sentinel window meaning "as large as the program" (paper: unlimited).
UNLIMITED: int | None = None

#: Bump when the cached result format or timing semantics change; part
#: of every disk-cache key, so stale caches invalidate themselves.
CACHE_FORMAT = 2

#: The interpreter's major.minor version; part of every profile key.
PYTHON_VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"

_MEMORY_KINDS = (
    "fixed", "bypass", "cache", "hierarchy", "banked", "prefetch",
)


@dataclass(frozen=True)
class MemorySpec:
    """Declarative description of the memory system behind a run.

    The kinds, and the fields each one reads:

    * ``fixed`` — the paper's model: every access costs the memory
      differential; no other field applies.
    * ``bypass`` — an LRU bypass buffer (the paper's future-work
      proposal) in front of the fixed model; ``entries``,
      ``line_bytes``.
    * ``cache`` — the stock two-level LRU hierarchy
      (:data:`repro.memory.DEFAULT_HIERARCHY`) over a fixed miss cost.
    * ``hierarchy`` — a cache hierarchy with *configurable* geometry:
      ``levels`` is a tuple of ``(size_bytes, line_bytes,
      associativity, hit_extra)`` rows, outermost last (``None`` means
      the stock hierarchy).
    * ``banked`` — interleaved banks with conflict queuing;
      ``banks``, ``bank_busy``, and ``line_bytes`` as the interleave
      granularity.
    * ``prefetch`` — a stride/stream prefetcher over the fixed model;
      ``entries``, ``line_bytes``, ``streams``, ``degree``.

    The memory differential itself stays a :class:`Point` field — the
    spec describes the *structure*, the point supplies the cost.
    """

    kind: str = "fixed"
    entries: int = 64
    line_bytes: int = 32
    levels: tuple[tuple[int, int, int, int], ...] | None = None
    banks: int = 8
    bank_busy: int = 4
    streams: int = 4
    degree: int = 2

    def __post_init__(self) -> None:
        if self.kind not in _MEMORY_KINDS:
            raise ConfigError(
                f"unknown memory kind {self.kind!r}; "
                f"known: {', '.join(_MEMORY_KINDS)}"
            )
        if self.levels is not None:
            rows = []
            for row in self.levels:
                if len(row) != 4:
                    raise ConfigError(
                        "each cache level needs (size_bytes, line_bytes, "
                        f"associativity, hit_extra), got {row!r}"
                    )
                rows.append(tuple(int(value) for value in row))
            # Normalise lists from TOML/JSON into hashable tuples.
            object.__setattr__(self, "levels", tuple(rows))

    def build(self, memory_differential: int) -> MemorySystem:
        """Instantiate the model for one memory differential."""
        if self.kind == "bypass":
            return BypassBuffer(
                FixedLatencyMemory(memory_differential),
                entries=self.entries,
                line_bytes=self.line_bytes,
            )
        if self.kind == "cache":
            return CacheMemory(miss_extra=memory_differential)
        if self.kind == "hierarchy":
            if self.levels is None:
                return CacheMemory(miss_extra=memory_differential)
            return CacheMemory(
                levels=hierarchy_levels(self.levels),
                miss_extra=memory_differential,
            )
        if self.kind == "banked":
            return BankedMemory(
                extra=memory_differential,
                banks=self.banks,
                interleave_bytes=self.line_bytes,
                busy=self.bank_busy,
            )
        if self.kind == "prefetch":
            return StreamPrefetcher(
                FixedLatencyMemory(memory_differential),
                entries=self.entries,
                line_bytes=self.line_bytes,
                streams=self.streams,
                degree=self.degree,
            )
        return FixedLatencyMemory(memory_differential)


@dataclass(frozen=True)
class Point:
    """One fully-specified simulation: the unit of caching and sweeping.

    ``window=None`` is the paper's unlimited window (resolved to the
    program length at evaluation time). Fields a machine does not read
    are folded away by the machine's ``canonical`` hook before caching,
    so e.g. every serial point at one differential shares one run.
    """

    program: str
    machine: str = "dm"
    window: int | None = 32
    memory_differential: int = 0
    au_width: int = 4
    du_width: int = 5
    swsm_width: int = 9
    partition: str = "slice"
    expansion: float = 0.0
    memory: MemorySpec = field(default_factory=MemorySpec)
    probe_esw: bool = False

    def __post_init__(self) -> None:
        if not self.program:
            raise ConfigError("point needs a program name")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"window must be >= 1 or None, got {self.window}")
        if self.memory_differential < 0:
            raise ConfigError(
                f"memory differential must be >= 0, "
                f"got {self.memory_differential}"
            )
        for name in ("au_width", "du_width", "swsm_width"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if not 0.0 <= self.expansion or not math.isfinite(self.expansion):
            raise ConfigError(
                f"expansion must be a finite fraction >= 0, "
                f"got {self.expansion}"
            )


_POINT_FIELDS = tuple(f.name for f in fields(Point))
_MEMORY_FIELDS = tuple(f.name for f in fields(MemorySpec))
_LATENCY_FIELDS = tuple(f.name for f in fields(LatencyModel))


def memory_doc(memory: MemorySpec) -> dict:
    """``asdict(memory)`` as JSON sees it, without the deep copy."""
    doc = {name: getattr(memory, name) for name in _MEMORY_FIELDS}
    if memory.levels is not None:
        doc["levels"] = [list(row) for row in memory.levels]
    return doc


def latencies_doc(latencies: LatencyModel) -> dict:
    """``asdict(latencies)``, without the deep copy."""
    return {name: getattr(latencies, name) for name in _LATENCY_FIELDS}


def point_digest(
    point: Point, scale: int, latencies: LatencyModel
) -> str:
    """Stable content address of (point, scale, latencies).

    Used as the disk-cache key: any change to the spec, the kernel
    scale, the latency model or the cache format yields a new digest.
    For generated programs (``gen:<family>:<seed>``) the grammar
    version joins the key, because a grammar bump changes what those
    names *build* — cached results from an older grammar must not be
    served for them.
    """
    point_fields = {name: getattr(point, name) for name in _POINT_FIELDS}
    point_fields["memory"] = memory_doc(point.memory)
    doc = {
        "format": CACHE_FORMAT,
        "point": point_fields,
        "scale": scale,
        "latencies": latencies_doc(latencies),
    }
    # Case-insensitive to match get_kernel's name normalisation.
    if point.program.lower().startswith("gen:"):
        from ..workloads.grammar import GRAMMAR_VERSION

        doc["grammar"] = GRAMMAR_VERSION
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@cache
def source_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` sources.

    Covers each file's package-relative path and bytes, in path order,
    so any edit, addition or removal of a source file changes it.
    Computed once per process, from the files this package was imported
    from.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def profile_digest(kind: str, name: str, scale: int) -> str:
    """Content address of one kernel's static page record.

    Keys a row of the result store's ``profiles`` table: the record
    kind (the page it feeds), the kernel name (a ``gen:<family>:<seed>``
    name carries its seed), the scale, the interpreter's major.minor
    version and :func:`source_digest`. Any edit to the package's
    sources therefore misses, and the record is recomputed.
    """
    doc = {
        "kind": kind,
        "name": name,
        "scale": scale,
        "python": PYTHON_VERSION,
        "sources": source_digest(),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def point_batch_key(point: Point) -> tuple | None:
    """Grouping key for the batched sweep engine, or None.

    Points with the same key share one compiled machine program, so a
    whole sweep axis (windows, differentials, widths, memory variants)
    can stack into one batched simulation — see
    :mod:`repro.machines.batch` and the ``Session.run`` batch planner.
    Probe points are excluded (the probe route has no batched
    form), as is any machine without a ``batch_configs`` hook (the
    planner checks the hook separately; serial is analytic and needs
    no batching). Widths deliberately stay *out* of the key: the
    vector loop supports per-lane widths, and compilation is
    width-independent.
    """
    if point.probe_esw:
        return None
    return (point.program, point.machine, point.partition, point.expansion)


def point_to_dict(point: Point) -> dict:
    """Plain-dict form of a point (JSON/TOML compatible, window None ->
    ``"unl"``) — the same field spelling :meth:`Sweep.to_dict` uses for
    its base point, and the wire format of the service API."""
    return {
        name: _value_to_plain(getattr(point, name))
        for name in _POINT_FIELDS
    }


def point_from_dict(data: dict) -> Point:
    """Inverse of :func:`point_to_dict`; tolerant of sparse dicts."""
    if not isinstance(data, dict):
        raise ConfigError(f"point spec must be a table/object, got {data!r}")
    unknown = sorted(set(data) - set(_POINT_FIELDS))
    if unknown:
        raise ConfigError(
            f"unknown point field {unknown[0]!r}; "
            f"point fields: {', '.join(_POINT_FIELDS)}"
        )
    return Point(**{
        key: _value_from_plain(key, value) for key, value in data.items()
    })


AxisKey = str | tuple[str, ...]


def _program_from_axes(
    axes: list[tuple[AxisKey, tuple[object, ...]]],
) -> object | None:
    """First program named by a program axis (for the placeholder base)."""
    for key, values in axes:
        names = key if isinstance(key, tuple) else (key,)
        if "program" in names:
            first = values[0]
            if isinstance(key, tuple):
                return first[names.index("program")]  # type: ignore[index]
            return first
    return None


@dataclass(frozen=True)
class Sweep:
    """A declarative grid of points.

    ``axes`` is an ordered tuple of ``(field-or-fields, values)``
    pairs. A plain string key varies one :class:`Point` field; a tuple
    key *zips* several fields together (each value is a tuple of the
    same arity), for axes that must co-vary.
    """

    base: Point
    axes: tuple[tuple[AxisKey, tuple[object, ...]], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        for key, values in self.axes:
            names = key if isinstance(key, tuple) else (key,)
            for axis_field in names:
                if axis_field not in _POINT_FIELDS:
                    raise ConfigError(
                        f"unknown sweep axis {axis_field!r}; "
                        f"point fields: {', '.join(_POINT_FIELDS)}"
                    )
            if not values:
                raise ConfigError(f"sweep axis {key!r} has no values")
            if isinstance(key, tuple):
                for value in values:
                    if not isinstance(value, tuple) or len(value) != len(key):
                        raise ConfigError(
                            f"zipped axis {key!r} needs {len(key)}-tuples, "
                            f"got {value!r}"
                        )

    @classmethod
    def grid(
        cls,
        name: str = "",
        zipped: dict[tuple[str, ...], object] | None = None,
        **coords: object,
    ) -> "Sweep":
        """Build a sweep from keyword coordinates.

        A tuple/list value becomes an axis; a scalar (including strings
        and ``None``) fixes that field on the base point. ``zipped``
        maps tuples of field names to sequences of value tuples.
        """
        axes: list[tuple[AxisKey, tuple[object, ...]]] = []
        scalars: dict[str, object] = {}
        for key, value in coords.items():
            if key not in _POINT_FIELDS:
                raise ConfigError(
                    f"unknown point field {key!r}; "
                    f"point fields: {', '.join(_POINT_FIELDS)}"
                )
            if isinstance(value, (tuple, list)):
                axes.append((key, tuple(value)))
            else:
                scalars[key] = value
        for key_fields, values in (zipped or {}).items():
            axes.append(
                (tuple(key_fields), tuple(tuple(v) for v in values))  # type: ignore[arg-type]
            )
        if "program" not in scalars:
            inferred = _program_from_axes(axes)
            if inferred is None:
                raise ConfigError("sweep needs a program (scalar or axis)")
            scalars["program"] = inferred
        return cls(base=Point(**scalars), axes=tuple(axes), name=name)  # type: ignore[arg-type]

    def points(self):
        """Iterate the grid in axis order (last axis fastest)."""
        keys = [key for key, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        for combo in itertools.product(*value_lists):
            overrides: dict[str, object] = {}
            for key, value in zip(keys, combo):
                if isinstance(key, tuple):
                    overrides.update(zip(key, value))  # type: ignore[arg-type]
                else:
                    overrides[key] = value
            yield replace(self.base, **overrides)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON/TOML compatible, window None -> "unl")."""
        axes: dict[str, list] = {}
        for key, values in self.axes:
            key_name = ",".join(key) if isinstance(key, tuple) else key
            axes[key_name] = [_value_to_plain(v) for v in values]
        return {
            "name": self.name,
            "base": {
                f: _value_to_plain(getattr(self.base, f))
                for f in _POINT_FIELDS
            },
            "axes": axes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Sweep":
        """Inverse of :meth:`to_dict`; tolerant of sparse base dicts."""
        axes: list[tuple[AxisKey, tuple[object, ...]]] = []
        for key_name, values in dict(data.get("axes", {})).items():
            names = tuple(part.strip() for part in key_name.split(","))
            key: AxisKey = names if len(names) > 1 else names[0]
            if isinstance(key, tuple):
                for value in values:
                    if not isinstance(value, (tuple, list)) or len(
                        value
                    ) != len(key):
                        raise ConfigError(
                            f"zipped axis {key_name!r} needs "
                            f"{len(key)}-element rows, got {value!r}"
                        )
                parsed = tuple(
                    tuple(
                        _value_from_plain(axis_field, item)
                        for axis_field, item in zip(key, value)
                    )
                    for value in values
                )
            else:
                parsed = tuple(_value_from_plain(key, v) for v in values)
            axes.append((key, parsed))
        base_args = {
            key: _value_from_plain(key, value)
            for key, value in dict(data.get("base", {})).items()
        }
        if "program" not in base_args:
            inferred = _program_from_axes(axes)
            if inferred is None:
                raise ConfigError(
                    "sweep spec needs base.program or a program axis"
                )
            base_args["program"] = inferred
        return cls(
            base=Point(**base_args),  # type: ignore[arg-type]
            axes=tuple(axes),
            name=str(data.get("name", "")),
        )


def _value_to_plain(value: object) -> object:
    if value is None:
        return "unl"
    if isinstance(value, MemorySpec):
        return asdict(value)
    return value


def _value_from_plain(axis_field: str, value: object) -> object:
    if axis_field == "window" and (
        value is None or value in ("unl", "unlimited")
    ):
        return None
    if axis_field == "memory":
        if isinstance(value, MemorySpec):
            return value
        if isinstance(value, dict):
            return MemorySpec(**value)
        if isinstance(value, str):
            return MemorySpec(kind=value)
        raise ConfigError(f"cannot parse memory spec from {value!r}")
    if axis_field == "expansion" and isinstance(value, (int, float)):
        return float(value)
    return value


def load_sweep(path: str | Path) -> Sweep:
    """Load a sweep spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".toml":
            import tomllib

            with path.open("rb") as handle:
                data = tomllib.load(handle)
        else:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read sweep spec {path}: {error}") from None
    except ValueError as error:  # TOMLDecodeError / JSONDecodeError
        raise ConfigError(f"cannot parse sweep spec {path}: {error}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"sweep spec {path} must be a table/object")
    return Sweep.from_dict(data)
