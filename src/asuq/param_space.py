"""Uncertain-parameter space: physical ranges and the map from [-1, 1]^m.

Each parameter has a physical range [min, max]; the toolkit works in
normalized coordinates where every parameter spans [-1, 1] and the input
density is uniform (the maximum-entropy choice for range-bounded inputs).
A point is drawn in [-1, 1]^m and mapped to physical values for the
evaluator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "ParameterSpec",
    "ParameterSpace",
    "hyshot_space",
    "unit_space",
    "sample_hypercube",
    "hypercube_blocks",
    "SAMPLER_VERSION",
]

# Version of the sample values that sample_hypercube draws, recorded in
# campaign manifests: 1 was one PCG64 stream per row, 2 is the Philox
# counter stream.
SAMPLER_VERSION = 2


@dataclass(frozen=True)
class ParameterSpec:
    """One uncertain physical parameter with its range and nominal value."""

    name: str
    min: float
    nominal: float
    max: float
    units: str = ""

    def __post_init__(self):
        if not self.name:
            raise DataError("parameter name must be non-empty")
        if not all(map(math.isfinite, (self.min, self.nominal, self.max))):
            raise DataError(f"{self.name}: min, nominal and max must be "
                            f"finite, got {self.min}, {self.nominal}, {self.max}")
        if not (self.min < self.max):
            raise DataError(f"{self.name}: min {self.min} must be < max {self.max}")
        if not (self.min <= self.nominal <= self.max):
            raise DataError(
                f"{self.name}: nominal {self.nominal} outside [{self.min}, {self.max}]"
            )
        # ParameterSpace.denormalize forms min + (x + 1) (max - min) / 2,
        # whose largest intermediate, 2 (max - min) at x = 1, bounds the
        # rest: the image of every x in [-1, 1] is finite iff it is.
        if not math.isfinite(2.0 * (self.max - self.min)):
            raise DataError(f"{self.name}: the range [{self.min}, {self.max}] "
                            f"maps x = 1 to inf; its physical image must be finite")


class ParameterSpace:
    """Ordered parameters with the affine map from [-1, 1]^m to physical values.

    Immutable after construction; all methods are safe for concurrent use.
    Coordinate i of the normalized space corresponds to ``params[i]``.
    """

    def __init__(self, params: Sequence[ParameterSpec]):
        params = tuple(params)
        if len(params) < 1:
            raise DataError("a parameter space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate parameter names: {dupes}")
        self.params = params
        self.names = tuple(names)
        self._mins = np.array([p.min for p in params], dtype=float)
        self._spans = np.array([p.max for p in params], dtype=float) - self._mins

    @property
    def m(self) -> int:
        return len(self.params)

    @property
    def nominals(self) -> np.ndarray:
        return np.array([p.nominal for p in self.params], dtype=float)

    def denormalize(self, x) -> np.ndarray:
        """Map normalized coordinates to physical values."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.m:
            raise DataError(
                f"normalized vector has length {x.shape[-1]}, expected {self.m}"
            )
        return self._mins + (x + 1.0) * self._spans / 2.0

    # -- persistence -------------------------------------------------------

    @classmethod
    def from_dict(cls, entries: Iterable[dict]) -> "ParameterSpace":
        """A space from JSON entries, one object per parameter.

        Each needs a non-empty string ``name`` and JSON numbers ``min``,
        ``nominal`` and ``max``; ``units``, if present, is a string.
        Anything else is a DataError that names the entry.
        """
        return cls([_spec_from_entry(e, i) for i, e in enumerate(entries)])

    @classmethod
    def from_json(cls, path) -> "ParameterSpace":
        try:
            entries = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read parameter space {path}: {exc}") from exc
        if not isinstance(entries, list):
            raise DataError(f"{path}: expected a JSON array of parameter objects")
        return cls.from_dict(entries)


def _spec_from_entry(e, i: int) -> ParameterSpec:
    keys = ("min", "nominal", "max")
    # type(), not isinstance(): a JSON true is a bool, not a number.
    if not (type(e) is dict and type(e.get("name")) is str and e["name"]
            and type(e.get("units", "")) is str
            and all(type(e.get(k)) in (int, float) for k in keys)):
        raise DataError(f"bad parameter entry {i}: expected an object with a "
                        f"non-empty string name, numbers min, nominal and "
                        f"max, and string units if any, got {e!r}")
    try:
        lo, nominal, hi = (float(e[k]) for k in keys)
    except OverflowError:
        raise DataError(f"bad parameter entry {i}: min, nominal and max must "
                        f"be finite, got {e!r}") from None
    return ParameterSpec(e["name"], lo, nominal, hi, e.get("units", ""))


def hyshot_space() -> ParameterSpace:
    """The bundled seven-parameter HyShot II inflow space."""
    text = resources.files("asuq.data").joinpath("hyshot_space.json").read_text()
    return ParameterSpace.from_dict(json.loads(text))


def unit_space(m: int) -> ParameterSpace:
    """A placeholder space where physical and normalized coordinates agree."""
    return ParameterSpace(
        [ParameterSpec(name=f"x{i + 1}", min=-1.0, nominal=0.0, max=1.0)
         for i in range(m)]
    )


# Rows per block of hypercube_blocks. A multiple of 64, so BLAS groups
# the rows of each block's X @ w as it groups them in one product over
# all rows, and the projections keep their bits: always on one BLAS
# thread, and where a threaded product splits rows on a group boundary.
_SAMPLE_BLOCK = 4096


def hypercube_blocks(m: int, n: int, seed: int, rows: int = _SAMPLE_BLOCK):
    """Yield the rows of :func:`sample_hypercube` in consecutive blocks.

    Philox emits four 64-bit words per counter step, one per double, so
    row j owns the aligned counter block starting at j * ceil(m/4) under
    a key derived once from ``seed``. Row j is therefore a pure function
    of (seed, j), and consecutive draws from one generator continue one
    stream. Every block has ``rows`` rows except the last, which takes
    the rest (``rows`` to 2 ``rows`` - 1, or all n when n < 2 ``rows``).
    So for ``rows`` > 1 only n = 1 gives a lone row, whose product numpy
    takes as a dot product, not as BLAS's matrix-vector product. Blocks
    are (k, m) views of the counter steps drawn.
    """
    words = -(-m // 4)  # counter steps per row
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    blocks = max(1, n // rows)
    for b in range(blocks):
        k = rows if b < blocks - 1 else n - (blocks - 1) * rows
        yield gen.uniform(-1.0, 1.0, (k, 4 * words))[:, :m]


def sample_hypercube(m: int, n: int, seed: int) -> np.ndarray:
    """Uniform samples on [-1, 1]^m from a counter-based (Philox) stream.

    Row j is a pure function of (seed, j), so a longer draw extends a
    shorter one (see :func:`hypercube_blocks`, whose single block of all
    n rows this is). The result is C-contiguous with shape (n, m).
    """
    (X,) = hypercube_blocks(m, n, seed, rows=max(n, 1))
    return np.ascontiguousarray(X)
