"""Exact entropy and mutual-information computations on finite discrete joints.

A :class:`JointTable` is a dense probability mass array over a product
support, small enough for exact marginalization.  All information
measures are in nats with the convention 0*ln(0) = 0.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .relevance import mass_total
from .xreal import XReal, xdiv, xmin


class JointTable:
    """Immutable joint distribution of several finite discrete variables."""

    def __init__(self, probs: np.ndarray):
        arr = np.array(probs, dtype=float)
        if arr.ndim == 0:
            raise ValueError("a joint table needs at least one variable")
        arr /= mass_total(arr)
        arr.setflags(write=False)
        self.probs = arr

    def marginal(self, variables: Sequence[int]) -> np.ndarray:
        """Marginal mass array over ``variables``, axes in the given order."""
        variables = self._check_vars(variables)
        drop = tuple(ax for ax in range(self.probs.ndim) if ax not in variables)
        marg = self.probs.sum(axis=drop) if drop else self.probs
        kept = [ax for ax in range(self.probs.ndim) if ax in variables]
        order = [kept.index(v) for v in variables]
        return np.transpose(marg, order)

    def _check_vars(self, variables: Sequence[int]) -> tuple[int, ...]:
        variables = tuple(variables)
        if not variables:
            raise ValueError("empty variable subset")
        for v in variables:
            if not 0 <= v < self.probs.ndim:
                raise ValueError(f"variable index {v} out of range")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in {variables}")
        return variables


def plugin_entropy(counts: np.ndarray, total: float = 1.0) -> float:
    """Entropy (nats) of the frequencies ``counts / total``; 0*ln(0) = 0.

    Takes a probability mass (``total`` 1) or bin counts (``total`` the
    number of observations), of any shape.
    """
    p = counts[counts > 0] / total
    terms = p * np.log(p)
    terms.sort()  # canonical order: H(X,Y) == H(Y,X) to the last bit
    return float(-terms.sum())


def entropy(t: JointTable, variables: Sequence[int]) -> float:
    """Shannon entropy (nats) of the marginal over ``variables``."""
    return plugin_entropy(t.marginal(variables))


def _disjoint(*groups: Sequence[int]) -> None:
    seen: set[int] = set()
    for g in groups:
        s = set(g)
        if s & seen:
            raise ValueError(f"overlapping variable subsets: {groups}")
        seen |= s


def cond_entropy(t: JointTable, x_vars: Sequence[int], y_vars: Sequence[int]) -> float:
    """H(X|Y) = H(X,Y) - H(Y)."""
    _disjoint(x_vars, y_vars)
    return entropy(t, tuple(x_vars) + tuple(y_vars)) - entropy(t, y_vars)


def mi(t: JointTable, x_vars: Sequence[int], y_vars: Sequence[int]) -> float:
    """MI(X,Y) = H(X) + H(Y) - H(X,Y)."""
    _disjoint(x_vars, y_vars)
    return (
        entropy(t, x_vars)
        + entropy(t, y_vars)
        - entropy(t, tuple(x_vars) + tuple(y_vars))
    )


def cond_mi(
    t: JointTable,
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
    t: JointTable,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    z_vars: Sequence[int],
) -> float:
    """Triple mutual information MI(X,Y) - MI(X,Y|Z); may be negative."""
    return mi(t, x_vars, y_vars) - cond_mi(t, x_vars, y_vars, z_vars)


def normalized_mi(mi_xy: XReal, h_x: XReal, h_y: XReal) -> XReal:
    """MI divided by the smaller entropy, under extended-real semantics.

    Bounded in [0,1] only for discrete variables; with differential
    entropies the quotient can be negative, infinite, or indeterminate,
    which is exactly what the selection objectives must see.
    """
    return xdiv(mi_xy, xmin((h_x, h_y)))
