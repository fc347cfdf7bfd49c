"""Incremental repair simulation for a multicast group.

Every receiver gets the k source packets, loses some subset, and repair
parity is broadcast one packet per round. The simulation enumerates loss
patterns with their probabilities and reports which fraction of the group
(probability weighted) is fully repaired after each round. Parity packets
themselves are modeled as loss free; the weighting only covers the source
packet losses being repaired.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .rng import check_probability

PATTERN_CAP = 10**6


@dataclass(frozen=True)
class ErasurePattern:
    """A set of lost packet indices with its occurrence probability."""

    lost: frozenset[int]
    probability: float


@dataclass(frozen=True)
class PatternSet:
    """Enumerated source-loss patterns for one channel."""

    k: int
    e_max: int
    p_e: float
    patterns: tuple[ErasurePattern, ...]


@dataclass(frozen=True)
class RecoveryTable:
    """Per pattern and per round, how many lost packets were repaired."""

    rounds: int
    lost_sizes: tuple[int, ...]
    recovered: tuple[tuple[int, ...], ...]  # [pattern][round 0..rounds]

    def full_recovery_round(self, pattern_index: int) -> int | None:
        """First round after which the pattern is fully repaired."""
        size = self.lost_sizes[pattern_index]
        for t, count in enumerate(self.recovered[pattern_index]):
            if count == size:
                return t
        return None


@dataclass(frozen=True)
class CdfCurve:
    """Weighted fraction of impaired receivers repaired per round."""

    p_e: float
    e_max: int
    points: tuple[tuple[int, float], ...]
    partial: bool = False


def enumerate_patterns(k: int, e_max: int, p_e: float) -> PatternSet:
    """All patterns of 1..e_max losses among the k source packets.

    Each pattern of i losses occurs with probability p_e^i * (1-p_e)^(k-i);
    the zero-loss pattern is deliberately excluded, so the probabilities are
    weights over impaired receivers, not a distribution summing to one.
    """
    if not 1 <= e_max <= k:
        raise ValueError(f"need 1 <= e_max <= k, got e_max={e_max}")
    p_e = check_probability(p_e)
    total = 0
    for i in range(1, e_max + 1):  # stopped once past the cap, so total is a lower bound
        total += math.comb(k, i)
        if total > PATTERN_CAP:
            raise ValueError(
                f"at least {total} patterns exceed the enumeration cap {PATTERN_CAP}; lower "
                f"e_max or sample patterns instead of enumerating them")
    patterns = []
    for i in range(1, e_max + 1):
        prob = p_e**i * (1.0 - p_e) ** (k - i)
        for combo in combinations(range(1, k + 1), i):
            patterns.append(ErasurePattern(lost=frozenset(combo), probability=prob))
    return PatternSet(k=k, e_max=e_max, p_e=p_e, patterns=tuple(patterns))


def simulate_incremental(codec, pattern_set: PatternSet, rounds: int | None = None) -> RecoveryTable:
    """Replay incremental repair for every pattern.

    Round t gives each receiver its surviving source packets plus parity
    packets 1..t; the entry records how many of its lost packets decoding
    pins down. Patterns are independent, so this is a pure map over them.
    """
    if codec.k != pattern_set.k:
        raise ValueError(f"codec has k={codec.k}, patterns have k={pattern_set.k}")
    if rounds is None:
        rounds = codec.parity_limit
    lost = [pattern.lost for pattern in pattern_set.patterns]
    return RecoveryTable(rounds=rounds, lost_sizes=tuple(len(s) for s in lost),
                         recovered=codec.recovery_rows(lost, rounds))


def weighted_cdf(table: RecoveryTable, pattern_set: PatternSet,
                 partial: bool = False) -> CdfCurve:
    """Probability-weighted repair curve over rounds.

    Full mode counts a pattern once everything it lost is repaired; partial
    mode credits the repaired fraction of each pattern instead.
    """
    if len(pattern_set.patterns) != len(table.lost_sizes):
        raise ValueError("pattern set does not match the recovery table")
    triples = [(pattern.probability, row, size) for pattern, row, size
               in zip(pattern_set.patterns, table.recovered, table.lost_sizes)]
    denom = math.fsum(w for w, _, _ in triples)
    if denom == 0:
        raise ValueError(f"the patterns have zero total weight at p_e={pattern_set.p_e}: "
                         f"no pattern of 1..{pattern_set.e_max} losses can occur")
    points = []
    for t in range(table.rounds + 1):
        if partial:
            num = math.fsum(w * row[t] / size for w, row, size in triples)
        else:
            num = math.fsum(w for w, row, size in triples if row[t] == size)
        points.append((t, num / denom))
    return CdfCurve(p_e=pattern_set.p_e, e_max=pattern_set.e_max,
                    points=tuple(points), partial=partial)
