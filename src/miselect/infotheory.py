"""Exact entropy and mutual-information computations on finite discrete joints.

A :class:`Joint` is only its nonzero support atoms: one integer array of
cell indices and one mass vector, so desk-scale tables with millions of
cells but a few hundred atoms stay fast.  All information measures are in
nats with the convention 0*ln(0) = 0.

Projecting the atoms on a sorted variable subset groups them: each atom's
mixed-radix code over the subset is numbered densely in code order, and
the grouping is cached once per subset.  Group masses are summed in atom
order, so a conditional probability is the same float whichever grouping
it comes from, and an entropy is the same float in any variable order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MASS_TOLERANCE = 1e-9


def mass_total(masses: np.ndarray) -> float:
    """Total of ``masses``; ValueError unless non-negative, finite and near 1.

    The total is ``np.sum`` of the nonzero masses in order, zeros dropped first,
    so a zero spelled anywhere, or left out, cannot change its pairwise order.
    """
    nonzero = masses[masses != 0.0]
    if np.any(nonzero < 0.0):
        raise ValueError("negative probability mass")
    with np.errstate(over="ignore"):  # an overflowing total is refused below
        total = float(nonzero.sum())
    if not np.isfinite(total):
        raise ValueError(f"total mass {total} is not finite")
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"total mass {total} not within {MASS_TOLERANCE} of 1")
    return total


class Joint:
    """The support atoms of a joint of several finite discrete variables.

    ``atoms`` holds the cell index of each nonzero cell, one row per atom
    in row-major order, and ``mass`` their normalised probabilities.
    """

    def __init__(self, arities: Sequence[int], atoms: np.ndarray, mass: np.ndarray):
        self.arities = tuple(arities)
        self.atoms = atoms
        self.mass = mass
        one_group = np.zeros(len(mass), dtype=np.intp)
        self._groupings: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {
            (): (one_group, np.bincount(one_group, weights=mass))}

    @classmethod
    def from_dense(cls, probs: np.ndarray, *args, **kwargs) -> "Joint":
        """The joint of a dense mass array: ``from_cells`` of its nonzero cells.

        Further arguments go to the constructor.
        """
        flat = np.asarray(probs, dtype=float).ravel()
        cells = np.flatnonzero(flat != 0.0)  # a bool mask is scanned faster than floats
        return cls.from_cells(np.shape(probs), cells, flat[cells], *args, **kwargs)

    @classmethod
    def from_cells(cls, shape: Sequence[int], cells: np.ndarray, masses: np.ndarray,
                   *args, **kwargs) -> "Joint":
        """The joint whose cells of ``shape`` hold ``masses`` at ascending ``cells``, else 0.

        Zero masses are dropped and the rest divided by their ``mass_total``.
        """
        total = mass_total(masses)
        kept = masses != 0.0
        atoms = np.stack(np.unravel_index(cells[kept], shape)).T  # column_stack writes strided
        return cls(shape, atoms, masses[kept] / total, *args, **kwargs)

    def _grouping(self, variables: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Group id of each atom by its projection on ``variables``, and group masses.

        Groups are numbered in the order of the projection's mixed-radix code
        over the sorted variables; a subset with more cells than the index
        range holds is refused with ValueError.  Each group's mass is summed
        in atom order, so a conditional probability is the same float
        whichever grouping it comes from.
        """
        key = tuple(sorted(set(variables)))
        if key not in self._groupings:  # the empty key is always there
            codes = np.ravel_multi_index(self.atoms[:, key].T, np.take(self.arities, key))
            ids = np.unique(codes, return_inverse=True)[1]
            self._groupings[key] = (ids, np.bincount(ids, weights=self.mass))
        return self._groupings[key]


def plugin_entropy(probs: np.ndarray) -> float:
    """Entropy (nats) of the probability mass ``probs``, of any shape; 0*ln(0) = 0."""
    p = probs[probs > 0]
    terms = p * np.log(p)
    terms.sort()  # canonical order: H(X,Y) == H(Y,X) to the last bit
    return float(-terms.sum())


def entropy(t: Joint, variables: Sequence[int]) -> float:
    """Shannon entropy (nats) of the marginal over ``variables``."""
    variables = tuple(variables)
    if not variables:
        raise ValueError("empty variable subset")
    for v in variables:
        if not 0 <= v < len(t.arities):  # a negative index would wrap
            raise ValueError(f"variable index {v} out of range")
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable in {variables}")
    return plugin_entropy(t._grouping(variables)[1])


def _disjoint(*groups: Sequence[int]) -> None:
    seen: set[int] = set()
    for g in groups:
        s = set(g)
        if s & seen:
            raise ValueError(f"overlapping variable subsets: {groups}")
        seen |= s


def mi(t: Joint, x_vars: Sequence[int], y_vars: Sequence[int]) -> float:
    """MI(X,Y) = H(X) + H(Y) - H(X,Y)."""
    _disjoint(x_vars, y_vars)
    return (
        entropy(t, x_vars)
        + entropy(t, y_vars)
        - entropy(t, tuple(x_vars) + tuple(y_vars))
    )


def cond_mi(
    t: Joint,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    z_vars: Sequence[int],
) -> float:
    """MI(X,Y|Z) = H(X,Z) + H(Y,Z) - H(Z) - H(X,Y,Z)."""
    _disjoint(x_vars, y_vars, z_vars)
    xz = tuple(x_vars) + tuple(z_vars)
    yz = tuple(y_vars) + tuple(z_vars)
    xyz = tuple(x_vars) + tuple(y_vars) + tuple(z_vars)
    return entropy(t, xz) + entropy(t, yz) - entropy(t, z_vars) - entropy(t, xyz)


def tmi(
    t: Joint,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    z_vars: Sequence[int],
) -> float:
    """Triple mutual information MI(X,Y) - MI(X,Y|Z); may be negative."""
    return mi(t, x_vars, y_vars) - cond_mi(t, x_vars, y_vars, z_vars)
