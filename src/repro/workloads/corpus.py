"""Corpus manifests: named, versioned collections of generated kernels.

A :class:`Corpus` pins a set of generated kernels — family, seed,
content digest and static profile per kernel — so an experiment over
"100 generated programs" is as reproducible as one over the seven
paper kernels. Manifests serialise to TOML or JSON
(:func:`write_manifest` / :func:`load_manifest`); the digest of each
entry is the :meth:`repro.ir.Program.digest` of the program built at
the manifest's scale, so :func:`verify_corpus` can prove that every
kernel regenerates bit-identically on any machine.

Corpus kernels are addressed by their ``gen:<family>:<seed>`` names,
which the kernel registry resolves dynamically (see
:mod:`repro.workloads.grammar`); :func:`register_corpus` warms and
validates those resolutions. The names flow through
``Point``/``Sweep``/``Session`` — including the content-addressed disk
cache and process-pool workers — as first-class ``program=`` axes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from ..config import require_scale
from ..errors import KernelError
from ..kernels.base import KernelSpec, get_kernel
from .characterize import characterize
from .grammar import (
    FAMILIES,
    GRAMMAR_VERSION,
    build_generated,
    ensure_family,
    generated_name,
)

__all__ = [
    "MANIFEST_VERSION",
    "Corpus",
    "CorpusEntry",
    "generate_corpus",
    "load_manifest",
    "register_corpus",
    "verify_corpus",
    "write_manifest",
]

#: Manifest format version; bump on incompatible schema changes.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One pinned generated kernel.

    ``digest`` and ``instructions`` describe the program built at the
    *corpus* scale; the remaining fields are the static profile summary
    recorded for tables and band-prediction bookkeeping.

    An entry made by :func:`generate_corpus` is *pending*: only
    ``name``, ``family`` and ``seed`` are set, and the first read of
    any other field builds and characterizes the kernel once, at the
    corpus scale, and fills them all in.
    """

    name: str
    family: str
    seed: int
    digest: str
    instructions: int
    predicted_band: str
    lod_rate: float
    memory_fraction: float

    @classmethod
    def _pending(cls, family: str, seed: int, scale: int) -> "CorpusEntry":
        entry = object.__new__(cls)
        entry.__dict__.update(
            name=generated_name(family, seed), family=family, seed=seed,
            _scale=scale,
        )
        return entry

    @property
    def pending(self) -> bool:
        """True until a pending entry's built fields are first read."""
        return "digest" not in self.__dict__

    def __getattr__(self, attr: str):
        # Normal lookup failed: only a pending entry's built fields
        # (never set yet) get here.
        if attr not in self.__dataclass_fields__:
            raise AttributeError(attr)
        program = build_generated(self.family, self.seed, self._scale)
        profile = characterize(program)
        self.__dict__.update(
            digest=program.digest(),
            instructions=len(program),
            predicted_band=profile.predicted_band,
            lod_rate=round(profile.lod_rate, 4),
            memory_fraction=round(profile.memory_fraction, 4),
        )
        return self.__dict__[attr]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "digest": self.digest,
            "instructions": self.instructions,
            "predicted_band": self.predicted_band,
            "lod_rate": self.lod_rate,
            "memory_fraction": self.memory_fraction,
        }


@dataclass(frozen=True)
class Corpus:
    """A named, versioned collection of generated kernels.

    ``version`` is the manifest *schema* version; ``grammar`` is the
    :data:`~repro.workloads.grammar.GRAMMAR_VERSION` the kernels were
    sampled under — a manifest from a different grammar fails loudly
    at load time instead of as a wall of digest mismatches.
    """

    name: str
    seed: int
    scale: int
    families: tuple[str, ...]
    entries: tuple[CorpusEntry, ...]
    version: int = MANIFEST_VERSION
    grammar: int = GRAMMAR_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        """Kernel registry names, in manifest order — a sweep axis."""
        return tuple(entry.name for entry in self.entries)

    def by_family(self) -> dict[str, tuple[CorpusEntry, ...]]:
        grouped: dict[str, list[CorpusEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.family, []).append(entry)
        return {family: tuple(rows) for family, rows in grouped.items()}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "grammar": self.grammar,
            "seed": self.seed,
            "scale": self.scale,
            "families": list(self.families),
            "kernels": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Corpus":
        try:
            version = int(data.get("version", MANIFEST_VERSION))
            if version != MANIFEST_VERSION:
                raise KernelError(
                    f"corpus manifest version {version} is not supported "
                    f"(expected {MANIFEST_VERSION})"
                )
            grammar = int(data.get("grammar", GRAMMAR_VERSION))
            if grammar != GRAMMAR_VERSION:
                raise KernelError(
                    f"corpus manifest was generated by grammar "
                    f"v{grammar}, this build samples grammar "
                    f"v{GRAMMAR_VERSION}; regenerate the corpus"
                )
            entries = tuple(
                CorpusEntry(
                    name=str(row["name"]),
                    family=str(row["family"]),
                    seed=int(row["seed"]),
                    digest=str(row["digest"]),
                    instructions=int(row["instructions"]),
                    predicted_band=str(row["predicted_band"]),
                    lod_rate=float(row["lod_rate"]),
                    memory_fraction=float(row["memory_fraction"]),
                )
                for row in data["kernels"]
            )
            return cls(
                name=str(data["name"]),
                seed=int(data["seed"]),
                scale=int(data["scale"]),
                families=tuple(str(f) for f in data["families"]),
                entries=entries,
                version=version,
                grammar=grammar,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise KernelError(
                f"malformed corpus manifest: {error!r}"
            ) from None


def generate_corpus(
    size: int,
    seed: int = 0,
    scale: int = 3_000,
    families: tuple[str, ...] = FAMILIES,
    name: str = "",
) -> Corpus:
    """Generate a corpus — a pure function of every argument.

    Families are assigned round-robin so coverage stays even at any
    size; per-kernel grammar seeds are drawn from a corpus-level RNG
    (collisions rejected, so every kernel is distinct). Only that draw
    happens here: the entries are pending, and each kernel is built at
    most once, when one of its built fields is first read (by
    ``to_dict``, :func:`write_manifest`, :func:`verify_corpus` or
    ``==``). ``names``, ``len`` and ``families`` build nothing.
    """
    require_scale(scale)
    if size < 1:
        raise KernelError(f"corpus size must be >= 1, got {size}")
    if not families:
        raise KernelError("corpus needs at least one family")
    for family in families:
        ensure_family(family)
    rng = random.Random(f"repro:corpus:{seed}")
    seen: set[tuple[str, int]] = set()
    entries = []
    for index in range(size):
        family = families[index % len(families)]
        while True:
            kernel_seed = rng.randrange(1_000_000)
            if (family, kernel_seed) not in seen:
                seen.add((family, kernel_seed))
                break
        entries.append(CorpusEntry._pending(family, kernel_seed, scale))
    if seed == 0 and tuple(families) == FAMILIES:
        default_name = f"default-{size}"
    else:
        default_name = f"corpus-{size}-s{seed}"
        if tuple(families) != FAMILIES:
            # A family subset is a different corpus; never let it
            # collide with the all-family default of the same size.
            default_name += "-" + "+".join(families)
    return Corpus(
        name=name or default_name,
        seed=seed,
        scale=scale,
        families=tuple(families),
        entries=tuple(entries),
    )


def verify_corpus(corpus: Corpus) -> list[str]:
    """Regenerate every kernel at the manifest scale and diff digests.

    Returns a list of human-readable mismatch descriptions; an empty
    list means every kernel regenerates bit-identically.
    """
    problems = []
    for entry in corpus.entries:
        expected = generated_name(entry.family, entry.seed)
        if entry.name != expected:
            problems.append(
                f"{entry.name}: name does not match family/seed "
                f"(expected {expected})"
            )
            continue
        program = build_generated(entry.family, entry.seed, corpus.scale)
        if len(program) != entry.instructions:
            problems.append(
                f"{entry.name}: {len(program)} instructions, manifest "
                f"says {entry.instructions}"
            )
        digest = program.digest()
        if digest != entry.digest:
            problems.append(
                f"{entry.name}: digest {digest[:12]}... != manifest "
                f"{entry.digest[:12]}..."
            )
    return problems


def register_corpus(corpus: Corpus) -> tuple[KernelSpec, ...]:
    """Resolve every corpus kernel through the kernel registry.

    Generated names resolve dynamically, so this is a warm-and-validate
    pass rather than a mutation: it proves each name parses, memoises
    the specs, and returns them in manifest order.
    """
    return tuple(get_kernel(name) for name in corpus.names)


# -- manifest files ------------------------------------------------------------


def _toml_value(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        # Control characters are illegal in TOML basic strings;
        # escape them so every written manifest parses back.
        escaped = "".join(
            ch if ch >= " " and ch != "\x7f" else f"\\u{ord(ch):04X}"
            for ch in escaped
        )
        return f'"{escaped}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = repr(value)
        return text if ("." in text or "e" in text) else f"{text}.0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise KernelError(f"cannot serialise {value!r} to TOML")


def _to_toml(corpus: Corpus) -> str:
    doc = corpus.to_dict()
    lines = [
        "# Corpus manifest — generated by `repro corpus`; regenerate",
        "# rather than editing (digests pin exact kernel content).",
    ]
    for key in ("name", "version", "grammar", "seed", "scale",
                "families"):
        lines.append(f"{key} = {_toml_value(doc[key])}")
    for row in doc["kernels"]:
        lines.append("")
        lines.append("[[kernels]]")
        for key, value in row.items():
            lines.append(f"{key} = {_toml_value(value)}")
    return "\n".join(lines) + "\n"


def write_manifest(corpus: Corpus, path: str | Path) -> Path:
    """Write a manifest as TOML (default) or JSON, by file suffix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() == ".json":
        path.write_text(json.dumps(corpus.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
    else:
        path.write_text(_to_toml(corpus), encoding="utf-8")
    return path


def load_manifest(path: str | Path) -> Corpus:
    """Load a ``.toml`` or ``.json`` corpus manifest."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            data = json.loads(path.read_text(encoding="utf-8"))
        else:
            import tomllib

            with path.open("rb") as handle:
                data = tomllib.load(handle)
    except OSError as error:
        raise KernelError(
            f"cannot read corpus manifest {path}: {error}"
        ) from None
    except ValueError as error:  # TOMLDecodeError / JSONDecodeError
        raise KernelError(
            f"cannot parse corpus manifest {path}: {error}"
        ) from None
    if not isinstance(data, dict):
        raise KernelError(f"corpus manifest {path} must be a table/object")
    return Corpus.from_dict(data)
