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
_INTERVAL_RTOL = 1e-9  # relative rounding error that collectable_packets forgives


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
    chance decoding cannot repair, and the hypergeometric split
    C(k,i)*C(n-k,e-i)/C(n,e) says how many of the erasures, i, were
    systematic."""
    cn = [math.comb(n, e) for e in range(n + 1)]
    ck = [math.comb(k, i) for i in range(k + 1)]
    cr = [math.comb(n - k, j) for j in range(n - k + 1)]
    terms = []
    for e in range(1, n + 1):
        fail = failure_prob(e)
        if fail == 0.0:
            continue
        pmf = cn[e] * p_e**e * (1.0 - p_e) ** (n - e)
        for i in range(max(1, e - (n - k)), min(e, k) + 1):
            terms.append(i * fail * pmf * (ck[i] * cr[e - i] / cn[e]))
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
    receivers passes its distinct erasure patterns, weighted by how often
    each was drawn, to one call of the codec's unrecovered_totals, which
    drops the patterns that lose no source.
    """
    if receivers < 1:
        raise ValueError("need at least one receiver")
    if workers < 1:
        raise ValueError("need at least one worker")

    def run_range(first: int, count: int) -> list[int]:
        totals = [0] * (n - codec.k + 1)
        for done in range(0, count, _BATCH):
            batch = rng.erasure_masks(seed, first + done, min(_BATCH, count - done), n, p_e)
            masks, cnts = np.unique(batch, return_counts=True)
            totals = [a + b for a, b in zip(totals, codec.unrecovered_totals(masks, n, cnts))]
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


def _parity_scan(family: str, k: int, p_e: float, receivers: int, seed: int, workers: int):
    """(p, loss rate, block length) for p = 1, 2, ... up to the family's
    limit. MDS and fountain give their analytic rate and no block length, MDS
    while k+p fits the 256 elements of GF(256); polar gives the Monte-Carlo
    rate and the block it ran on while k+p fits rng.MAX_PACKETS, from one
    codec and one _lost_totals pass per block length."""
    if family != "polar":
        analytic, top = {"mds": (plr_mds, min(PARITY_SCAN_CAP, 256 - k)),
                         "fountain": (plr_fountain, PARITY_SCAN_CAP)}[family]
        for p in range(1, top + 1):
            yield p, analytic(k + p, k, p_e).plr, None
        return
    p = 1
    while k + p <= rng.MAX_PACKETS:
        codec = build_codec(CodeSpec(family="polar", n=k + p, k=k, epsilon=p_e))
        block = codec.n
        n = min(block, rng.MAX_PACKETS)
        totals = _lost_totals(codec, n, p_e, receivers, seed, workers)
        for j in range(p, n - k + 1):
            yield j, totals[j] / (receivers * k), block
        p = n - k + 1


def min_parity(family: str, k: int, p_e: float, plr_target: float, *,
               receivers: int = DEFAULT_RECEIVERS, seed: int = 0,
               workers: int = 1) -> ParityPlan | None:
    """Smallest parity count whose predicted loss rate meets the target.

    With no parity the loss rate is p_e; past that, one scan of _parity_scan.
    MDS and fountain use their analytic expressions; polar has no closed form
    and is measured empirically (method "mc"), on at most rng.MAX_PACKETS
    packets per block. Residual loss shrinks as parity grows, so a linear
    scan from zero finds the minimum. Polar parity columns go out in a fixed
    order and a receiver's erasure mask of fewer packets is a prefix of its
    mask of more, so for one block length the code at parity p is a prefix of
    the code at any larger p: one codec and one Monte-Carlo pass per block
    length give the loss rate of every p in it, each bit-identical to
    plr_empirical on that p alone. Returns None when the target is
    unreachable within the family's limits or PARITY_SCAN_CAP parity packets,
    and at once when every packet is lost (p_e = 1).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k < 1:
        raise ValueError("need at least one source packet")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p_e}")
    if not 0.0 < plr_target < 1.0:
        raise ValueError(f"loss target must be in (0, 1), got {plr_target}")
    if receivers < 1:
        raise ValueError("need at least one receiver")
    if workers < 1:
        raise ValueError("need at least one worker")
    if p_e == 1.0:
        return None
    if p_e <= plr_target:
        return ParityPlan(family=family, k=k, p=0, n=k, plr=p_e, method="analytic")
    for p, plr, block in _parity_scan(family, k, p_e, receivers, seed, workers):
        if plr <= plr_target:
            mc = block is not None
            return ParityPlan(family=family, k=k, p=p, n=k + p, plr=plr,
                              method="mc" if mc else "analytic",
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
    # 0.3 / 0.1 is 2.9999999999999996: a whole interval short by a rounding error
    return math.floor(budget / packet_interval * (1 + _INTERVAL_RTOL)) + 1
