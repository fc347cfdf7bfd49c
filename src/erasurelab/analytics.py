"""Packet loss rate evaluation and redundancy planning.

The analytic path models a block of n packets sent over an erasure channel
with loss probability p_e. Residual loss after decoding is summarized as
PLR = (1/k) * sum over i of i * P(exactly i source packets stay lost).
The Monte-Carlo path simulates independent receivers against a real codec.
"""
from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gf256, rng
from .codec import build_codec, check_block, check_code, check_finite

DEFAULT_RECEIVERS = 50_000
PARITY_SCAN_CAP = 128  # min_parity gives up past this many parity packets
# blocks the analytic rates take: C(n, n // 2) first passes the float range at n = 1030
ANALYTIC_BLOCK_CAP = 1029
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
    n, k = check_block(n, k)
    e, i = check_finite("e and i", e, i)
    if not 0 <= e <= n:
        raise ValueError(f"erasure count {e} out of range")
    if not 0 <= i <= min(e, k) or e - i > n - k:
        raise ValueError(f"systematic split i={i} impossible for e={e}, n={n}, k={k}")
    return math.comb(k, i) * math.comb(n - k, e - i) / math.comb(n, e)


def _check_analytic_block(n: int) -> None:
    """Reject a block longer than ANALYTIC_BLOCK_CAP, the analytic rates' limit."""
    if n > ANALYTIC_BLOCK_CAP:
        raise ValueError(f"the analytic loss rate takes blocks of at most "
                         f"{ANALYTIC_BLOCK_CAP} packets, got {n}")


def _analytic_plr(family: str, n: int, k: int, p_e: float,
                  failure: Callable[[int], float]) -> PlrReport:
    """The closed-form rates' one front. Erasure count e is binomial,
    failure(e) is the chance decoding cannot repair, and the hypergeometric
    split C(k,i)*C(n-k,e-i)/C(n,e) says how many of the erasures, i, were
    systematic. The float weights hold C(n, e) only while n is at most
    ANALYTIC_BLOCK_CAP, which is checked first."""
    n, k = check_block(n, k)
    p_e = rng.check_probability(p_e)
    _check_analytic_block(n)
    cn = [math.comb(n, e) for e in range(n + 1)]
    ck = [math.comb(k, i) for i in range(k + 1)]
    cr = [math.comb(n - k, j) for j in range(n - k + 1)]
    terms = []
    for e in range(1, n + 1):
        fail = failure(e)
        if fail == 0.0:
            continue
        pmf = cn[e] * p_e**e * (1.0 - p_e) ** (n - e)
        for i in range(max(1, e - (n - k)), min(e, k) + 1):
            terms.append(i * fail * pmf * (ck[i] * cr[e - i] / cn[e]))
    return PlrReport(family=family, n=n, k=k, p_e=p_e, plr=math.fsum(terms) / k, method="analytic")


def plr_mds(n: int, k: int, p_e: float) -> PlrReport:
    """Residual loss of an ideal MDS code of up to ANALYTIC_BLOCK_CAP (1,029)
    packets: decoding fails exactly when more than n-k packets are erased,
    and then every lost systematic packet stays lost. build_mds, which builds
    the GF(256) code, stops at n=256."""
    return _analytic_plr("mds", n, k, p_e, lambda e: 1.0 if e > n - k else 0.0)


def plr_fountain(n: int, k: int, p_e: float) -> PlrReport:
    """Residual loss bound for the random fountain code.

    While the erasure count e fits the parity budget n-k, a random binary
    system with n-k-e spare equations fails with probability at most
    2**-(n-k-e); past the budget failure is certain. This makes the result an
    upper bound on the true loss rate, which is what planning wants. Like
    plr_mds, it takes blocks of up to ANALYTIC_BLOCK_CAP (1,029) packets.
    """
    return _analytic_plr("fountain", n, k, p_e,
                         lambda e: 1.0 if e > n - k else 2.0 ** (e - (n - k)))


# the families with a closed-form loss rate, each with its function; polar has none
ANALYTIC_PLR = {"mds": plr_mds, "fountain": plr_fountain}


def _check_draw(receivers: int, workers: int) -> tuple[int, int]:
    """Reject a Monte-Carlo draw of no receivers, of more receivers than the
    receiver stream holds (2**64), or of no workers; return both as ints."""
    if receivers < 1:
        raise ValueError("need at least one receiver")
    if receivers > 2**64:
        raise ValueError(f"need at most 2**64 receivers, got {receivers}")
    if workers < 1:
        raise ValueError("need at least one worker")
    return operator.index(receivers), operator.index(workers)


def _lost_totals(codec, n: int, p_e: float, receivers: int, seed: int,
                 workers: int) -> list[int]:
    """Entry j, for j = 0..n-k: the lost source packets summed over the
    receivers when the first k+j packets of each block of n are sent.

    Receiver r draws its erasures from a stream keyed by (seed, r), and a
    mask of fewer packets is a prefix of a mask of more, so every entry is
    bit-identical for any worker count and any batch split. Worker w draws
    receivers bounds[w] to bounds[w + 1] in batches; each batch passes its
    distinct erasure patterns, weighted by how often each was drawn, to one
    call of the codec's unrecovered_totals. The callers check the draw.
    """
    workers = min(workers, -(-receivers // _BATCH))  # no more threads than batches
    bounds = [(receivers * w) // workers for w in range(workers + 1)]
    # Where scheduler load balancing is off, a new thread stays on the CPU of
    # the thread that started it, so unplaced workers share one CPU. While the
    # caller may use at least as many CPUs as there are workers, worker w moves
    # to its own share of them and then gives the scheduler all of them back:
    # without load balancing the thread stays where it moved, with it the
    # scheduler may still move it off a busy CPU. A single worker runs on the
    # calling thread and is never moved; a platform that cannot place a thread
    # runs every worker where it starts.
    allowed = (sorted(os.sched_getaffinity(0))
               if workers > 1 and hasattr(os, "sched_setaffinity") else [])
    place = 1 < workers <= len(allowed)

    def run(w: int) -> list[int]:
        if place:
            tid = threading.get_native_id()
            with suppress(OSError):  # placement refused: the worker runs where it is
                os.sched_setaffinity(tid, allowed[w::workers])
                os.sched_setaffinity(tid, allowed)
        end = bounds[w + 1]
        totals = [0] * (n - codec.k + 1)
        for first in range(bounds[w], end, _BATCH):
            batch = rng.erasure_masks(seed, first, min(_BATCH, end - first), n, p_e)
            masks, cnts = np.unique(batch, return_counts=True)
            totals = [a + b for a, b in zip(totals, codec.unrecovered_totals(masks, n, cnts))]
        return totals

    if workers == 1:
        return run(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [sum(col) for col in zip(*pool.map(run, range(workers)))]


def plr_empirical(codec, n: int, k: int, p_e: float, receivers: int = DEFAULT_RECEIVERS,
                  seed: int = 0, workers: int = 1) -> PlrReport:
    """Monte-Carlo loss rate over independent simulated receivers, each
    drawing its erasures from a stream keyed by (seed, receiver): the result
    is bit-identical for any worker count."""
    n, k = check_block(n, k)
    p_e = rng.check_probability(p_e)
    if codec.k != k:
        raise ValueError(f"codec has k={codec.k}, expected {k}")
    if n - k > codec.parity_limit:
        raise ValueError(f"codec provides {codec.parity_limit} parity packets, n={n} needs {n - k}")
    if codec.family is None:  # checked before the draw
        raise ValueError(f"{type(codec).__name__} belongs to no family")
    receivers, workers = _check_draw(receivers, workers)
    lost = _lost_totals(codec, n, p_e, receivers, seed, workers)[-1]
    return PlrReport(family=codec.family, n=n, k=k, p_e=p_e, plr=lost / (receivers * k),
                     method="mc", receivers=receivers, seed=operator.index(seed))


def _parity_scan(family: str, k: int, p_e: float, receivers: int, seed: int, workers: int):
    """(p, loss rate, block length) for p = 0, 1, 2, ... up to the family's
    limit. With no parity every family loses p_e; past it the ANALYTIC_PLR
    families give their analytic rate and no block length, fountain while k+p
    fits ANALYTIC_BLOCK_CAP and MDS while it fits the elements of GF(256); polar
    gives the Monte-Carlo rate and the block it ran on while k+p fits
    rng.MAX_PACKETS, from one codec and one _lost_totals pass per block length."""
    yield 0, p_e, None
    analytic = ANALYTIC_PLR.get(family)
    if analytic:
        if family == "fountain":
            _check_analytic_block(k)
        top = gf256.FIELD_SIZE if family == "mds" else ANALYTIC_BLOCK_CAP
        for p in range(1, min(PARITY_SCAN_CAP, top - k) + 1):
            yield p, analytic(k + p, k, p_e).plr, None
        return
    p = 1
    while k + p <= rng.MAX_PACKETS:
        # the smallest power of two above k that holds k + p <= 64: the block is at most 64
        codec = build_codec("polar", k + p, k, epsilon=p_e)
        n = codec.n
        totals = _lost_totals(codec, n, p_e, receivers, seed, workers)
        for j in range(p, n - k + 1):
            yield j, totals[j] / (receivers * k), n
        p = n - k + 1


def min_parity(family: str, k: int, p_e: float, plr_target: float, *,
               receivers: int = DEFAULT_RECEIVERS, seed: int = 0,
               workers: int = 1) -> ParityPlan | None:
    """Smallest parity count whose predicted loss rate meets the target.

    One scan of _parity_scan from p = 0, where every family loses p_e: residual
    loss shrinks as parity grows, so the first p that meets the target is the
    minimum. MDS and fountain use their analytic expressions; polar has no
    closed form and is measured empirically (method "mc"), on at most
    rng.MAX_PACKETS packets per block. Polar parity columns go out in a fixed
    order and a receiver's erasure mask of fewer packets is a prefix of its mask
    of more, so for one block length the code at parity p is a prefix of the
    code at any larger p: one codec and one Monte-Carlo pass per block length
    give the loss rate of every p in it, each bit-identical to plr_empirical on
    that p alone. Returns None when the target is unreachable within the
    family's limits or PARITY_SCAN_CAP parity packets, and at once when every
    packet is lost (p_e = 1). When fountain needs parity, a k past
    ANALYTIC_BLOCK_CAP is a parameter error.
    """
    _, k = check_code(family, k, k)
    p_e = rng.check_probability(p_e)
    if not 0.0 < plr_target < 1.0:
        raise ValueError(f"loss target must be in (0, 1), got {plr_target}")
    receivers, workers = _check_draw(receivers, workers)
    if p_e == 1.0:
        return None
    for p, plr, block in _parity_scan(family, k, p_e, receivers, seed, workers):
        if plr <= plr_target:
            mc = block is not None
            return ParityPlan(family=family, k=k, p=p, n=k + p, plr=plr,
                              method="mc" if mc else "analytic",
                              receivers=receivers if mc else None,
                              seed=operator.index(seed) if mc else None, block_length=block)
    return None


def op_count(family: str, k: int, p: int, packet_size: int = 1500,
             word_bytes: int = 8) -> OpCount:
    """Arithmetic cost of producing parity.

    MDS needs 2k-1 byte operations (k table multiplies, k-1 xors) per output
    byte per column. Binary codes xor on machine words: an average column
    selects half the sources, costing (k-1)/2 word xors per output word.
    """
    k, p = check_finite("k and p", k, p)  # before k + p, which may overflow
    check_code(family, k + p, k)
    packet_size, word_bytes = check_finite("packet size and word width", packet_size, word_bytes)
    if packet_size < 1 or word_bytes < 1:
        raise ValueError("packet size and word width must be positive")
    if family == "mds":
        per_column = 2.0 * k - 1.0
        per_packet = per_column * packet_size
    else:
        per_column = (k - 1) / 2.0
        per_packet = per_column * (packet_size / word_bytes)
    per_column, per_packet, per_block = check_finite("operation counts", per_column,
                                                     per_packet, per_packet * p)
    return OpCount(family=family, k=k, p=p, packet_size=packet_size,
                   word_bytes=word_bytes, per_column=per_column,
                   per_packet=per_packet, per_block=per_block)


def delay_budget(rtt: float, packet_interval: float, k: int, encode_delay: float,
                 decode_delay: float, transmit_delay: float,
                 repair_rounds: int = 0) -> float:
    """End-to-end delay of block repair with optional feedback rounds.

    One-way trip in, k packet intervals to fill the block, encode, transmit,
    then each repair round costs a full round trip plus transmissions both
    ways, and decoding closes the budget.
    """
    rtt, packet_interval, encode_delay, decode_delay, transmit_delay = check_finite(
        "delay components", rtt, packet_interval, encode_delay, decode_delay, transmit_delay)
    if min(rtt, packet_interval, encode_delay, decode_delay, transmit_delay) < 0:
        raise ValueError("delay components must be non-negative")
    k, repair_rounds = check_finite("counts", k, repair_rounds)
    if k < 0 or repair_rounds < 0:
        raise ValueError("counts must be non-negative")
    return check_finite("delay budget", rtt / 2.0 + k * packet_interval + encode_delay
                        + transmit_delay + repair_rounds * (rtt + 2.0 * transmit_delay)
                        + decode_delay)[0]


def collectable_packets(budget: float, packet_interval: float) -> int:
    """How many packets arrive within a delay budget, counting the packet at
    time zero plus one per full interval."""
    budget, packet_interval = check_finite("budget and packet interval", budget, packet_interval)
    if packet_interval <= 0:
        raise ValueError("packet interval must be positive")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    # 0.3 / 0.1 is 2.9999999999999996: a whole interval short by a rounding error
    intervals = budget / packet_interval * (1 + _INTERVAL_RTOL)
    check_finite("budget / packet interval", intervals)
    return math.floor(intervals) + 1
