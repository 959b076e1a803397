"""Frozen 28-instance dataset engineered (by offline hill-climbing over bit
flips) so that the default CMI ranking over the canonical 6-feature hierarchy
starts with exactly the walkthrough order

    (C,F), (A,E), (A,C), (C,D), (B,D), (B,F), (B,E)

as (i, j) index pairs: (2,5), (0,4), (0,2), (2,3), (1,3), (1,5), (1,4).
Columns are A..F (indices 0..5); the last entry of each tuple is the label.
"""

import numpy as np

from hietan.dataset import Dataset

GOLDEN_ROWS = [
    (0, 0, 1, 0, 1, 1, 0),
    (0, 1, 0, 1, 0, 0, 1),
    (1, 0, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 0, 1),
    (0, 0, 0, 1, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 1),
    (1, 0, 1, 1, 0, 1, 0),
    (0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 1, 1),
    (1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1),
    (0, 1, 0, 1, 0, 1, 0),
    (0, 0, 0, 1, 0, 1, 1),
    (1, 1, 0, 1, 1, 0, 0),
    (1, 1, 1, 1, 0, 1, 1),
    (1, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 1, 0),
    (0, 1, 1, 1, 0, 1, 1),
    (1, 0, 0, 0, 1, 1, 0),
    (0, 0, 1, 1, 1, 0, 1),
    (0, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 1, 1, 1, 1),
    (0, 0, 1, 1, 0, 1, 1),
    (1, 1, 1, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (1, 0, 0, 0, 1, 0, 1),
]

# Expected start of the ranking (descending CMI, smoothing 1.0).
GOLDEN_ORDER_7 = [(2, 5), (0, 4), (0, 2), (2, 3), (1, 3), (1, 5), (1, 4)]

# The walkthrough test instance: F=C=E=1, A=D=B=0, in column order A..F.
GOLDEN_INSTANCE = [0, 0, 1, 0, 1, 1]

# hie_mst must produce the chain F->C->D->B->E->A ...
GOLDEN_CHAIN_PARENTS = (4, 3, 5, 2, 1, None)
# ... and hie_mst_lite the chain F->B->E->A with C and D removed.
GOLDEN_LITE_PARENTS = (4, 5, None, None, 1, None)
GOLDEN_LITE_ACTIVE = frozenset({0, 1, 4, 5})
GOLDEN_LITE_REMOVED = frozenset({2, 3})

# Every decision hie_mst_lite records for the walkthrough instance (seed 0):
# C--F is redundant (both 1); E->A enters and removes D (=A) and C (=E); the
# three candidates left touching C or D are unavailable; F->B and B->E enter.
# The active features A, B, E, F are then one component, so the scan stops
# and the eight remaining candidates are skipped.
GOLDEN_LITE_TRACE = [
    {"decision": "rejected_redundant", "i": 2, "j": 5},
    {"decision": "accepted_directed", "i": 0, "j": 4, "parent": 4, "child": 0},
    {"decision": "relative_removed", "i": 0, "j": 4, "feature": 3, "endpoint": 0},
    {"decision": "relative_removed", "i": 0, "j": 4, "feature": 2, "endpoint": 4},
    {"decision": "rejected_unavailable", "i": 0, "j": 2},
    {"decision": "rejected_unavailable", "i": 2, "j": 3},
    {"decision": "rejected_unavailable", "i": 1, "j": 3},
    {"decision": "accepted_directed", "i": 1, "j": 5, "parent": 5, "child": 1},
    {"decision": "accepted_directed", "i": 1, "j": 4, "parent": 1, "child": 4},
    {"decision": "scan_stopped", "i": 2, "j": 4, "skipped": 8},
]


def golden_dataset() -> Dataset:
    arr = np.array(GOLDEN_ROWS, dtype=np.uint8)
    return Dataset(arr[:, :6], arr[:, 6], ("A", "B", "C", "D", "E", "F"))
