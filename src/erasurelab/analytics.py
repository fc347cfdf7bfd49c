"""Packet loss rate evaluation and redundancy planning.

The analytic path models a block of n packets sent over an erasure channel
with loss probability p_e. Residual loss after decoding is summarized as
PLR = (1/k) * sum over i of i * P(exactly i source packets stay lost).
The Monte-Carlo path simulates independent receivers against a real codec.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .codec import FAMILIES, CodeSpec, build_codec

DEFAULT_RECEIVERS = 50_000
PARITY_SCAN_CAP = 128  # min_parity gives up past this many parity packets
_BATCH = 1 << 18


@dataclass(frozen=True)
class PlrReport:
    """One packet-loss-rate evaluation."""

    family: str
    n: int
    k: int
    p_e: float
    plr: float
    method: str
    receivers: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class ErasurePattern:
    """A set of lost packet indices with its occurrence probability."""

    lost: frozenset[int]
    probability: float


@dataclass(frozen=True)
class OpCount:
    """Arithmetic cost model for producing parity packets."""

    family: str
    k: int
    p: int
    packet_size: int
    word_bytes: int
    per_column: float
    per_packet: float
    per_block: float


@dataclass(frozen=True)
class ParityPlan:
    """Smallest parity count meeting a loss target, with how it was found."""

    family: str
    k: int
    p: int
    n: int
    plr: float
    method: str
    receivers: int | None = None
    seed: int | None = None
    block_length: int | None = None


def _binomial_pmf(n: int, e: int, p: float) -> float:
    return math.comb(n, e) * p**e * (1.0 - p) ** (n - e)


def systematic_erasures_pmf(e: int, i: int, n: int, k: int) -> float:
    """Probability that i of e block erasures hit the k systematic packets.

    Hypergeometric split C(k,i)*C(n-k,e-i)/C(n,e); arguments outside the
    support are a caller error rather than silently zero.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 <= e <= n:
        raise ValueError(f"erasure count {e} out of range")
    if not 0 <= i <= min(e, k) or e - i > n - k:
        raise ValueError(f"systematic split i={i} impossible for e={e}, n={n}, k={k}")
    return math.comb(k, i) * math.comb(n - k, e - i) / math.comb(n, e)


def _validate_block(n: int, k: int, p_e: float) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p_e}")


def _analytic_plr(n: int, k: int, p_e: float, failure_prob: Callable[[int], float]) -> float:
    """Shared mixture: erasure count e is binomial, failure_prob(e) is the
    chance decoding cannot repair, and the hypergeometric split says how many
    of the erasures were systematic."""
    terms = []
    for i in range(1, k + 1):
        for e in range(i, min(n, n - k + i) + 1):
            fail = failure_prob(e)
            if fail == 0.0:
                continue
            terms.append(i * fail * _binomial_pmf(n, e, p_e)
                         * systematic_erasures_pmf(e, i, n, k))
    return math.fsum(terms) / k


def plr_mds(n: int, k: int, p_e: float) -> PlrReport:
    """Residual loss of an MDS code: decoding fails exactly when more than
    n-k packets are erased, and then every lost systematic packet stays lost."""
    _validate_block(n, k, p_e)
    plr = _analytic_plr(n, k, p_e, lambda e: 1.0 if e > n - k else 0.0)
    return PlrReport(family="mds", n=n, k=k, p_e=p_e, plr=plr, method="analytic")


def plr_fountain(n: int, k: int, p_e: float) -> PlrReport:
    """Residual loss bound for the random fountain code.

    While the erasure count e fits the parity budget n-k, a random binary
    system with n-k-e spare equations fails with probability at most
    2**-(n-k-e); past the budget failure is certain. This makes the result an
    upper bound on the true loss rate, which is what planning wants.
    """
    _validate_block(n, k, p_e)
    budget = n - k

    def failure(e: int) -> float:
        if e > budget:
            return 1.0
        return 2.0 ** -(budget - e)

    plr = _analytic_plr(n, k, p_e, failure)
    return PlrReport(family="fountain", n=n, k=k, p_e=p_e, plr=plr, method="analytic")


def _lost_totals(codec, n: int, p_e: float, receivers: int, seed: int,
                 workers: int) -> list[int]:
    """Entry j, for j = 0..n-k: the lost source packets summed over the
    receivers when the first k+j packets of each block of n are sent.

    Receiver r draws its erasures from a stream keyed by (seed, r), and a
    mask of fewer packets is a prefix of a mask of more, so every entry is
    bit-identical for any worker count and any batch split. Each batch of
    receivers counts the distinct erasure patterns that lose a source in one
    call of the codec's unrecovered_totals.
    """
    if receivers < 1:
        raise ValueError("need at least one receiver")
    if workers < 1:
        raise ValueError("need at least one worker")
    sources = np.uint64((1 << codec.k) - 1)

    def run_range(first: int, count: int) -> list[int]:
        totals = [0] * (n - codec.k + 1)
        for done in range(0, count, _BATCH):
            batch = rng.erasure_masks(seed, first + done, min(_BATCH, count - done), n, p_e)
            masks, cnts = np.unique(batch, return_counts=True)
            lossy = (masks & sources) != 0  # a mask that loses no source adds nothing
            totals = [a + b for a, b in zip(
                totals, codec.unrecovered_totals(masks[lossy], n, cnts[lossy]))]
        return totals

    bounds = [(receivers * w) // workers for w in range(workers + 1)]
    ranges = [(bounds[w], bounds[w + 1] - bounds[w]) for w in range(workers)
              if bounds[w + 1] > bounds[w]]
    if len(ranges) == 1:
        return run_range(*ranges[0])
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        return [sum(col) for col in zip(*pool.map(lambda ab: run_range(*ab), ranges))]


def plr_empirical(codec, n: int, k: int, p_e: float, receivers: int = DEFAULT_RECEIVERS,
                  seed: int = 0, workers: int = 1) -> PlrReport:
    """Monte-Carlo loss rate over independent simulated receivers, each
    drawing its erasures from a stream keyed by (seed, receiver): the result
    is bit-identical for any worker count."""
    _validate_block(n, k, p_e)
    if codec.k != k:
        raise ValueError(f"codec has k={codec.k}, expected {k}")
    limit = codec.parity_limit
    if n - k > limit:
        raise ValueError(f"codec provides {limit} parity packets, n={n} needs {n - k}")
    family = codec.spec.family  # before the draw: an explicit codec has no family
    lost = _lost_totals(codec, n, p_e, receivers, seed, workers)[-1]
    return PlrReport(family=family, n=n, k=k, p_e=p_e,
                     plr=lost / (receivers * k), method="mc", receivers=receivers, seed=seed)


def _polar_plrs(k: int, p_e: float, receivers: int, seed: int, workers: int):
    """(Monte-Carlo loss rate, block length) of the polar code at parity
    p = 1, 2, ... while k+p fits rng.MAX_PACKETS, from one codec and one
    _lost_totals pass per block length."""
    p = 1
    while k + p <= rng.MAX_PACKETS:
        codec = build_codec(CodeSpec(family="polar", n=k + p, k=k, epsilon=p_e))
        block = codec.construction.block_length
        n = min(block, rng.MAX_PACKETS)
        totals = _lost_totals(codec, n, p_e, receivers, seed, workers)
        for lost in totals[p:]:
            yield lost / (receivers * k), block
        p = n - k + 1


def min_parity(family: str, k: int, p_e: float, plr_target: float, *,
               receivers: int = DEFAULT_RECEIVERS, seed: int = 0,
               workers: int = 1) -> ParityPlan | None:
    """Smallest parity count whose predicted loss rate meets the target.

    MDS and fountain use their analytic expressions; polar has no closed form
    and is measured empirically, on at most rng.MAX_PACKETS packets per block.
    Residual loss shrinks as parity grows, so a linear scan from zero finds
    the minimum. Polar parity columns go out in a fixed order and a
    receiver's erasure mask of fewer packets is a prefix of its mask of more,
    so for one block length the code at parity p is a prefix of the code at
    any larger p: one codec and one Monte-Carlo pass per block length give
    the loss rate of every p in it, each bit-identical to plr_empirical on
    that p alone. Returns None when the target is unreachable within the
    family's limits or PARITY_SCAN_CAP parity packets, and at once when every
    packet is lost (p_e = 1).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k < 1:
        raise ValueError("need at least one source packet")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p_e}")
    if not 0.0 < plr_target < 1.0:
        raise ValueError(f"loss target must be in (0, 1), got {plr_target}")
    if p_e == 1.0:
        return None

    polar_plrs = _polar_plrs(k, p_e, receivers, seed, workers)  # runs only when read
    for p in range(PARITY_SCAN_CAP + 1):
        n = k + p
        if p == 0:
            # no parity means no decoder: residual loss is the channel itself
            plr = p_e
            method = "analytic"
            block = None
        elif family == "mds":
            if n > 256:
                return None
            plr = plr_mds(n, k, p_e).plr
            method = "analytic"
            block = None
        elif family == "fountain":
            plr = plr_fountain(n, k, p_e).plr
            method = "analytic"
            block = None
        else:
            step = next(polar_plrs, None)
            if step is None:  # k+p passed rng.MAX_PACKETS
                return None
            plr, block = step
            method = "mc"
        if plr <= plr_target:
            mc = method == "mc"
            return ParityPlan(family=family, k=k, p=p, n=n, plr=plr, method=method,
                              receivers=receivers if mc else None,
                              seed=seed if mc else None, block_length=block)
    return None


def op_count(family: str, k: int, p: int, packet_size: int = 1500,
             word_bytes: int = 8) -> OpCount:
    """Arithmetic cost of producing parity.

    MDS needs 2k-1 byte operations (k table multiplies, k-1 xors) per output
    byte per column. Binary codes xor on machine words: an average column
    selects half the sources, costing (k-1)/2 word xors per output word.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k < 1 or p < 0:
        raise ValueError(f"need k >= 1 and p >= 0, got k={k}, p={p}")
    if packet_size < 1 or word_bytes < 1:
        raise ValueError("packet size and word width must be positive")
    if family == "mds":
        per_column = 2.0 * k - 1.0
        per_packet = per_column * packet_size
    else:
        per_column = (k - 1) / 2.0
        per_packet = per_column * (packet_size / word_bytes)
    return OpCount(family=family, k=k, p=p, packet_size=packet_size,
                   word_bytes=word_bytes, per_column=per_column,
                   per_packet=per_packet, per_block=per_packet * p)


def delay_budget(rtt: float, packet_interval: float, k: int, encode_delay: float,
                 decode_delay: float, transmit_delay: float,
                 repair_rounds: int = 0) -> float:
    """End-to-end delay of block repair with optional feedback rounds.

    One-way trip in, k packet intervals to fill the block, encode, transmit,
    then each repair round costs a full round trip plus transmissions both
    ways, and decoding closes the budget.
    """
    if min(rtt, packet_interval, encode_delay, decode_delay, transmit_delay) < 0:
        raise ValueError("delay components must be non-negative")
    if k < 0 or repair_rounds < 0:
        raise ValueError("counts must be non-negative")
    return (rtt / 2.0 + k * packet_interval + encode_delay + transmit_delay
            + repair_rounds * (rtt + 2.0 * transmit_delay) + decode_delay)


def collectable_packets(budget: float, packet_interval: float) -> int:
    """How many packets arrive within a delay budget, counting the packet at
    time zero plus one per full interval."""
    if packet_interval <= 0:
        raise ValueError("packet interval must be positive")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return int(budget / packet_interval) + 1
