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


def golden_scores_dataset() -> Dataset:
    """60 rows over 12 features from a seeded PCG64 stream, which NumPy
    draws the same on every platform."""
    rng = np.random.default_rng(2012)
    values = (rng.random((60, 12)) < rng.random(12)).astype(np.uint8)
    return Dataset(values, (rng.random(60) < 0.5).astype(np.uint8))

# float.hex of the exact CMI of each pair (i, j), i < j, in ascending (i, j)
# order, for golden_scores_dataset() at smoothing 1: the Decimal reference
# ``oracles.cmi_reference``, rounded once.
GOLDEN_SCORES_12 = [
    "0x1.a7409f951f05cp-7", "0x1.d79d307f13958p-7", "0x1.c777ba83b61dfp-7",
    "0x1.67a27b2b78a7ap-7", "0x1.2f311091ba71fp-5", "0x1.2a581042a9b4ep-5",
    "0x1.3c5bb6f220066p-6", "0x1.a2fd762551f6fp-7", "0x1.9e4614c34cf10p-10",
    "0x1.c52e0f8f8d541p-9", "0x1.18ff12639b7aap-7", "0x1.36d94f2fdb006p-7",
    "0x1.3e2c54c1ac7edp-9", "0x1.14b06894c27b8p-6", "0x1.592f1f297efb4p-9",
    "0x1.27e3b3e7da3f1p-8", "0x1.b4848ed740a43p-9", "0x1.33c2400db2527p-7",
    "0x1.78ae14a6be58ap-6", "0x1.4df03fb83fa45p-8", "0x1.52ae958b2f7abp-6",
    "0x1.4b31e194bcc3bp-9", "0x1.7d3bc49faefe3p-14", "0x1.bbfb8927a9b3cp-7",
    "0x1.be9925d47991ap-12", "0x1.e398b7073a3acp-6", "0x1.d7f8180faf4e7p-7",
    "0x1.815d0c315436ap-8", "0x1.a1da6501c9e0bp-10", "0x1.68c6dcca56980p-9",
    "0x1.8f3aafff73825p-6", "0x1.fdba80390f37bp-10", "0x1.0c7971a52cb75p-6",
    "0x1.17ffbe77d5293p-6", "0x1.8c38858fa245bp-7", "0x1.7a3c49e7ac269p-5",
    "0x1.03daf26fcb82cp-5", "0x1.d404e505d9b98p-8", "0x1.029fbc83df2d8p-5",
    "0x1.8231495c91de2p-7", "0x1.b42b345b8b6fep-7", "0x1.846ec423cee18p-7",
    "0x1.2e4a6aca3adb5p-7", "0x1.0b9daaec46750p-12", "0x1.dd9d1914be535p-6",
    "0x1.0357993bd5dbdp-8", "0x1.32bed9f34bedep-8", "0x1.35d057f4a4efdp-6",
    "0x1.e3cc18aba05ebp-7", "0x1.70198844cf230p-7", "0x1.7df77734c2169p-7",
    "0x1.e45229b8cc72dp-8", "0x1.92ffc08008324p-11", "0x1.16dd5b4d58d48p-8",
    "0x1.1e835a8f46fbdp-6", "0x1.7709bfbda775fp-6", "0x1.bec87dfb4b385p-8",
    "0x1.2269f6ac9ab52p-6", "0x1.80b2bf89104f6p-5", "0x1.8b121c6f1b36ap-9",
    "0x1.ae5e63d8a8cf0p-7", "0x1.7e5c42d24f63ep-6", "0x1.e0362621fb2dfp-9",
    "0x1.5585a706cd676p-7", "0x1.c6ad88024f583p-7", "0x1.2ef8c25b2d0edp-9",
]
