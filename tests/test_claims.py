"""The paper's claim that polar codes come near to MDS codes for medium-range
residual loss rates, pinned as a table of min_parity plans.

Regenerate the golden after a change that is meant to move a plan with
`PYTHONPATH=src python tests/test_claims.py > tests/golden/claims.txt`.
"""
from __future__ import annotations

from pathlib import Path

from erasurelab.analytics import DEFAULT_RECEIVERS, min_parity

GOLDEN = Path(__file__).parent / "golden" / "claims.txt"
KS = (16, 32, 40)
PES = (0.01, 0.05, 0.1)
TARGETS = (1e-2, 1e-3, 1e-4)
FAMILIES = ("mds", "fountain", "polar")
SEED = 0


def claims_table() -> str:
    """Smallest parity count per family for every (k, p_e, target) cell, "-"
    where the target is unreachable; polar is measured at the default
    receivers and SEED, fountain is its analytic bound."""
    lines = [f"# min_parity parity counts; polar: {DEFAULT_RECEIVERS} receivers, seed {SEED}",
             "k,pe,target," + ",".join(FAMILIES)]
    for k in KS:
        for pe in PES:
            for target in TARGETS:
                plans = [min_parity(family, k, pe, target, seed=SEED) for family in FAMILIES]
                counts = ["-" if plan is None else str(plan.p) for plan in plans]
                lines.append(f"{k},{pe},{target:.0e}," + ",".join(counts))
    return "\n".join(lines) + "\n"


def test_claims_table_matches_golden_byte_for_byte():
    assert claims_table().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    print(claims_table(), end="")
