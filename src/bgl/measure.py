"""Weighted-atom measure spaces, simple functions, and indexed families.

Everything is finite and immutable: a measure space is an array of strictly
positive atom weights, a function is an array of values on those atoms, and
a family is one value matrix, a row per member, on one space; atoms and
members are known by position alone.  Infinite total mass is represented
only through truncation sequences carrying a flag; no operation depends on
exact diffuseness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DiscreteMeasureSpace",
    "SimpleFunction",
    "FunctionFamily",
    "indicator",
    "save_family",
    "load_family",
]


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Finite list of atoms with strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a nonempty 1-d array")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise DomainError("atom weights must be finite and strictly positive")

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class SimpleFunction:
    """A measurable function given by one value per atom."""

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.space.n_atoms,):
            raise DomainError(
                f"values length {v.shape} does not match atom count {self.space.n_atoms}"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("function values must be finite (no NaN or inf)")


def indicator(space: DiscreteMeasureSpace, atoms) -> SimpleFunction:
    """Indicator of the given atom indices."""
    v = np.zeros(space.n_atoms)
    v[np.asarray(atoms, dtype=int)] = 1.0
    return SimpleFunction(space, v)


@dataclass(frozen=True)
class FunctionFamily:
    """Finite indexed family {Y(t, .)} on one shared measure space, stored as
    one read-only (m, n_atoms) value matrix: row t holds Y(t, .).

    The matrix is validated once (2-d, one column per atom, finite) and
    copied, so later mutation of the caller's array cannot reach it.
    Everything derived from a family reads the matrix; `members` builds
    `SimpleFunction` views only on request.
    """

    space: DiscreteMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise DomainError("matrix must be 2-d: one row per member")
        if v.shape[0] < 1:
            raise DomainError("a family needs at least one member")
        if v.shape[1] != self.space.n_atoms:
            raise DomainError(
                f"matrix has {v.shape[1]} columns for {self.space.n_atoms} atoms"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("function values must be finite (no NaN or inf)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def members(self) -> tuple:
        """The rows as `SimpleFunction`s, built on each access."""
        return tuple(SimpleFunction(self.space, row) for row in self.values)

    @property
    def m(self) -> int:
        return int(self.values.shape[0])


# ---------------------------------------------------------------------------
# columnar text format: `atom_id weight value1 ... valueK`, one line per atom;
# a header line names the family indices.


def save_family(path, family: FunctionFamily):
    """Write atom ids 0, 1, ... and member labels t0, t1, ... with the data."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# atom_id weight " + " ".join(f"t{i}" for i in range(family.m)) + "\n")
        for i, w in enumerate(family.space.weights):
            cols = [str(i), repr(float(w))] + [repr(float(v)) for v in family.values[:, i]]
            fh.write(" ".join(cols) + "\n")


def load_family(path) -> FunctionFamily:
    labels = None
    ids, weights, rows = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) < 3 or parts[0] != "atom_id" or parts[1] != "weight":
                    raise DomainError("header must read '# atom_id weight <labels...>'")
                labels = tuple(parts[2:])
                continue
            parts = line.split()
            ids.append(int(parts[0]))
            weights.append(float(parts[1]))
            rows.append([float(x) for x in parts[2:]])
    if labels is None:
        raise DomainError("missing header line naming the family indices")
    if not rows:
        raise DomainError("no atom lines found")
    if len(set(ids)) != len(ids):
        raise DomainError("atom ids must be unique")
    values = np.asarray(rows, dtype=float).T
    if values.shape[0] != len(labels):
        raise DomainError("value columns do not match the header labels")
    return FunctionFamily(DiscreteMeasureSpace(np.asarray(weights)), values)
