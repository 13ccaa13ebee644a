"""Weighted-atom measure spaces, simple functions, and indexed families.

Everything is finite and immutable: a measure space is an array of strictly
positive atom weights, a function is an array of values on those atoms, and
a family is one value matrix, a row per member, on one space.  Infinite
total mass is represented only through truncation sequences carrying a
flag; no operation depends on exact diffuseness.
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
    atom_ids: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a nonempty 1-d array")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise DomainError("atom weights must be finite and strictly positive")
        default = self.atom_ids is None  # an arange, unique by construction
        ids = np.arange(w.size) if default else np.asarray(self.atom_ids)
        object.__setattr__(self, "atom_ids", ids)
        if not default and (ids.size != w.size or np.unique(ids).size != ids.size):
            raise DomainError("atom_ids must be unique and match the weight count")

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

    Build it with `from_values`; the matrix is validated once (2-d, one
    column per atom, finite) and copied, so later mutation of the caller's
    array cannot reach it.  Everything derived from a family reads the
    matrix; `members` builds `SimpleFunction` views only on request.
    """

    labels: tuple | None
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
        labels = (tuple(f"t{i}" for i in range(v.shape[0])) if self.labels is None
                  else tuple(self.labels))
        if len(labels) != v.shape[0]:
            raise DomainError("labels and members must match")
        v.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_values(space: DiscreteMeasureSpace, matrix, labels=None) -> "FunctionFamily":
        """Family with rows of ``matrix`` as members, labelled t0, t1, ... by default."""
        return FunctionFamily(labels, space, matrix)

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
    space = family.space
    mat = family.values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# atom_id weight " + " ".join(str(l) for l in family.labels) + "\n")
        for i in range(space.n_atoms):
            cols = [str(space.atom_ids[i]), repr(float(space.weights[i]))]
            cols += [repr(float(v)) for v in mat[:, i]]
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
    values = np.asarray(rows, dtype=float).T
    if values.shape[0] != len(labels):
        raise DomainError("value columns do not match the header labels")
    space = DiscreteMeasureSpace(np.asarray(weights), atom_ids=np.asarray(ids))
    return FunctionFamily.from_values(space, values, labels=labels)
