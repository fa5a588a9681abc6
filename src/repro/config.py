"""Machine configurations and the operation latency model.

The paper (Jones & Topham, MICRO-30 1997) studies two machines:

* the access decoupled machine (**DM**): two out-of-order units, the
  address unit (AU) and the data unit (DU), each with its own
  instruction window and issue width;
* the single-window superscalar machine (**SWSM**): one out-of-order
  unit whose issue width equals the DM's *combined* issue width.

Figure captions in the paper give the combined issue width as ``CIW=9``.
The per-unit split is not legible in the source text; following the
authors' companion study on restricted instruction issue we default to
an AU width of 4 and a DU width of 5 (see README.md, documented
substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = [
    "LatencyModel",
    "DEFAULT_LATENCIES",
    "DMConfig",
    "SWSMConfig",
    "UnitConfig",
    "DEFAULT_MEMORY_DIFFERENTIAL",
    "MEMORY_DIFFERENTIALS",
    "require_scale",
]

#: The paper's headline memory differential; the text motivates it as
#: comparable to a Pentium Pro second-level cache miss (~60 cycles).
DEFAULT_MEMORY_DIFFERENTIAL = 60

#: The sweep of memory differentials used by the equivalent-window-ratio
#: figures (legends read md=0, md=10, ..., md=60).
MEMORY_DIFFERENTIALS = (0, 10, 20, 30, 40, 50, 60)


@dataclass(frozen=True)
class LatencyModel:
    """Operation latencies in cycles.

    The paper states that integer and address computations cost one
    cycle, floating-point operations complete in a few cycles (we use
    three), and that divides/intrinsics are excluded from that range
    (we model them with a longer configurable latency). A request that
    hits the decoupled memory or the prefetch buffer takes one cycle.
    """

    int_op: int = 1
    fp_op: int = 3
    fp_div: int = 12
    copy: int = 1
    receive: int = 1
    access: int = 1
    store: int = 1
    #: Base memory-system access cost; the memory differential is added
    #: on top of this, so a load issued at cycle ``s`` delivers at
    #: ``s + mem_base + md``.
    mem_base: int = 1

    def __post_init__(self) -> None:
        for name in (
            "int_op",
            "fp_op",
            "fp_div",
            "copy",
            "receive",
            "access",
            "store",
            "mem_base",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"latency {name!r} must be a positive integer, got {value!r}"
                )


DEFAULT_LATENCIES = LatencyModel()


def require_scale(scale: object) -> int:
    """``scale`` if it is an integer instruction count, else ConfigError.

    Passing a preset's name where its instruction count belongs is the
    usual slip, so the error names the integer to pass instead.
    """
    if isinstance(scale, int) and not isinstance(scale, bool):
        return scale
    name = repr(scale) if isinstance(scale, str) else "name"
    raise ConfigError(
        f"scale must be an integer instruction count, got {scale!r}; "
        f"for a preset pass repro.experiments.PRESETS[{name}].scale"
    )


@dataclass(frozen=True)
class UnitConfig:
    """One out-of-order unit: an instruction window plus an issue width.

    ``window`` is the number of reservation slots available for
    re-ordering; ``width`` bounds both dispatch and issue per cycle.
    """

    window: int
    width: int
    name: str = "unit"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.width < 1:
            raise ConfigError(f"issue width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class DMConfig:
    """Configuration of the access decoupled machine.

    The paper's x-axis "window size" for the DM is the size of *each*
    unit's window (the machine has two windows of that size); use
    :meth:`symmetric` to build that standard configuration.
    """

    au: UnitConfig
    du: UnitConfig
    latencies: LatencyModel = field(default=DEFAULT_LATENCIES)

    @classmethod
    def symmetric(
        cls,
        window: int,
        au_width: int = 4,
        du_width: int = 5,
        latencies: LatencyModel = DEFAULT_LATENCIES,
    ) -> "DMConfig":
        """Both units get the same window size (the paper's convention)."""
        return cls(
            au=UnitConfig(window=window, width=au_width, name="AU"),
            du=UnitConfig(window=window, width=du_width, name="DU"),
            latencies=latencies,
        )

    @property
    def combined_issue_width(self) -> int:
        return self.au.width + self.du.width

    def with_window(self, window: int) -> "DMConfig":
        """Return a copy with both windows resized to ``window``."""
        return replace(
            self,
            au=replace(self.au, window=window),
            du=replace(self.du, window=window),
        )


@dataclass(frozen=True)
class SWSMConfig:
    """Configuration of the single-window superscalar machine."""

    window: int
    width: int = 9
    latencies: LatencyModel = field(default=DEFAULT_LATENCIES)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.width < 1:
            raise ConfigError(f"issue width must be >= 1, got {self.width}")

    def with_window(self, window: int) -> "SWSMConfig":
        return replace(self, window=window)
