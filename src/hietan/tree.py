"""Single-parent dependency trees, the structures every learner returns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class DependencyTree:
    """Learned feature-dependency structure: at most one parent per feature.

    ``parent_of[f]`` is the parent feature of ``f`` or ``None``; parentless
    features are roots (the classifier conditions them on the class alone).
    The parent relation is validated to be acyclic at construction.
    """

    parent_of: tuple[Optional[int], ...]

    def __post_init__(self):
        n = len(self.parent_of)
        state = [0] * n  # 0 unvisited, 1 on current chain, 2 done
        for start, p in enumerate(self.parent_of):
            if p is not None and not 0 <= p < n:
                raise ValueError(f"parent index {p} outside [0, {n})")
            v = start
            chain = []
            while v is not None and state[v] == 0:
                state[v] = 1
                chain.append(v)
                v = self.parent_of[v]
            if v is not None and state[v] == 1:
                raise ValueError("parent relation contains a cycle")
            for u in chain:
                state[u] = 2

    @property
    def n_features(self) -> int:
        return len(self.parent_of)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs in child order."""
        return tuple(
            (p, c) for c, p in enumerate(self.parent_of) if p is not None
        )
