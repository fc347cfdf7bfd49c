"""The three benchmark workloads.

Each workload is a closed loop in one process: it builds its codecs and
inputs from the workload seed once, then repeats a fixed round of calls into
the public API of erasurelab, each call starting when the previous one has
returned. Every round makes the same calls on the same inputs, so the time of
each call is comparable across rounds, seeds and commits, and every round's
outputs are checked, both against the inputs and against the first round.

Calls go through the package's modules (`analytics.min_parity`, not
`erasurelab.min_parity`) so that the tracer's wrappers see them.
"""
from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path
from typing import NamedTuple

import reference
from erasurelab import analytics, fountain, gf256, multicast, polar

FAMILIES = ("mds", "fountain", "polar")
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
clock = time.perf_counter_ns


class Call(NamedTuple):
    """Label of one timed call, unique within a round."""

    op: str
    phase: str
    family: str = ""
    index: int = 0
    lost: int = 0


def trimmed_mean(values) -> float:
    """Mean of the values without the largest tenth of them."""
    kept = sorted(values)[:len(values) - len(values) // 10]
    return math.fsum(kept) / len(kept)


def typical_call_seconds(labels: list[Call], rounds: list[list[int]]) -> dict[Call, float]:
    """Each call's trimmed mean time across rounds, in seconds."""
    return {label: trimmed_mean(times) * 1e-9 for label, times in zip(labels, zip(*rounds))}


class Workload:
    """Shared bookkeeping: output checks, timed calls, phases."""

    name = ""
    why = ""
    # the reference computation of this kind of work (see reference.py)
    reference_work = staticmethod(reference.interpreter_seconds)

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.between_calls = None
        self.labels: list[Call] | None = None
        self._calls: list[tuple[Call, int]] = []
        self._reference = None

    def setup(self) -> dict[str, float]:
        """Build codecs and inputs; return seconds per setup part."""
        raise NotImplementedError

    def round(self):
        """Run one round, passing each timed call to `timed`; return the
        round's outputs."""
        raise NotImplementedError

    def timed(self, label: Call, ns: int) -> None:
        self._calls.append((label, ns))
        if self.between_calls is not None:
            self.between_calls()

    def run_round(self, tracer=None) -> list[int]:
        """One round; returns the nanoseconds of its timed calls, in the
        order of `labels`, which is the same in every round."""
        self.tracer, self._calls = tracer, []
        try:
            outputs = self.round()
        finally:
            self.tracer = None
        labels = [label for label, _ in self._calls]
        if self.labels is None:
            self.labels, self._reference = labels, outputs
        else:
            self.check(labels == self.labels and outputs == self._reference,
                       "round outputs differ from the first round")
        return [ns for _, ns in self._calls]

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)

    def named_metrics(self, call_s: dict[Call, float]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end metrics, name -> (value, unit), from
        each call's time as `typical_call_seconds` gives it."""
        raise NotImplementedError

    @staticmethod
    def sum_calls(call_s: dict[Call, float], **match) -> float:
        """Total of `call_s` over the calls whose label has the given fields."""
        return sum(sec for label, sec in call_s.items()
                   if all(getattr(label, f) == v for f, v in match.items()))

    def layer_context(self) -> dict[str, float]:
        """Per-round quantities the per-layer metrics need besides spans."""
        return {}


class CodecBlocks(Workload):
    """Encode, lose and decode seeded blocks with all three families.

    Phase "block" is k=36, p=8; phase "small" is k=8, p=4, where fixed
    per-call costs weigh more. Each phase holds p blocks whose erasure counts
    are a seeded order of 1..p, so every round decodes every erasure count
    once per family. Binary-family blocks repeat XOR_REPEAT times per round
    so each family takes a similar share of the round time. Each round gets
    fresh fountain codes, so its first fountain encode per phase generates
    the parity columns, as a user's first encode does.
    """

    name = "codec_blocks"
    why = ("GF(256) arithmetic, the xor encode and GF(2) decode do the work; the oracle, "
           "mask generation and the loss analytics do none")
    SHAPES = {"block": (36, 8), "small": (8, 4)}
    SIZE = 1500
    EPSILON = 0.05
    XOR_REPEAT = 8
    # one fountain code for every seed: how much of a block it can repair,
    # and so its decode work, depends on its columns
    FOUNTAIN_SEED = 1

    def setup(self):
        parts = {"build_mds_s": 0.0, "construct_polar_s": 0.0, "inputs_s": 0.0}
        self.codecs, self.blocks = {}, {}
        for phase, (k, p) in self.SHAPES.items():
            t0 = clock()
            mds = gf256.build_mds(k + p, k)
            t1 = clock()
            pol = polar.polar_for_parity(k, p, self.EPSILON)
            t2 = clock()
            self.codecs[phase] = {"mds": mds, "polar": pol, "fountain": self._fountain(phase)}
            gen = random.Random(f"{self.name}:{self.seed}:{phase}")
            erasures = list(range(1, p + 1))
            gen.shuffle(erasures)
            blocks = []
            for e in erasures:
                source = [gen.randbytes(self.SIZE) for _ in range(k)]
                lost = frozenset(gen.sample(range(1, k + 1), e))
                blocks.append((source, lost))
            self.blocks[phase] = blocks
            t3 = clock()
            parts["build_mds_s"] += (t1 - t0) * 1e-9
            parts["construct_polar_s"] += (t2 - t1) * 1e-9
            parts["inputs_s"] += (t3 - t2) * 1e-9
        return parts

    def _fountain(self, phase):
        k, p = self.SHAPES[phase]
        return fountain.FountainCode(k, self.FOUNTAIN_SEED, n=k + p)

    def round(self):
        outputs = []
        self.complete = {}
        for phase, (k, p) in self.SHAPES.items():
            self.phase(phase)
            for family in FAMILIES:
                codec = self.codecs[phase][family]
                done = []
                blocks = self.blocks[phase] * (1 if family == "mds" else self.XOR_REPEAT)
                for index, (source, lost) in enumerate(blocks):
                    t0 = clock()
                    parity = codec.encode(source, p)
                    t1 = clock()
                    received = {i: source[i - 1] for i in range(1, k + 1) if i not in lost}
                    received.update((k + j, parity[j - 1]) for j in range(1, p + 1))
                    t2 = clock()
                    result = codec.decode(received)
                    t3 = clock()
                    self.timed(Call("encode", phase, family, index), t1 - t0)
                    self.timed(Call("decode", phase, family, index, len(lost)), t3 - t2)
                    self._check_block(family, k, source, lost, result)
                    done.append(not result.unrecoverable)
                    outputs.append(parity)
                self.complete[phase, family] = sum(done) / len(done)
        # a fountain code generates its columns on first use and keeps them:
        # a fresh code makes every round's first encode generate them again
        for phase in self.SHAPES:
            self.codecs[phase]["fountain"] = self._fountain(phase)
        return outputs

    def _check_block(self, family, k, source, lost, result):
        kept = set(range(1, k + 1)) - result.unrecoverable
        self.check(result.unrecoverable <= lost and result.recovered.keys() == kept
                   and all(result.recovered[i] == source[i - 1] for i in kept),
                   f"{family} k={k}: decode returned wrong or missing packets")
        if family == "mds":
            self.check(not result.unrecoverable, f"mds k={k}: decode left packets missing")

    def named_metrics(self, call_s):
        _, p = self.SHAPES["block"]
        out = {}
        for op in ("encode", "decode"):
            for family in FAMILIES:
                calls = [c for c in call_s if c.op == op and c.phase == "block" and c.family == family]
                coded = sum(p if op == "encode" else c.lost for c in calls) * self.SIZE
                seconds = self.sum_calls(call_s, op=op, phase="block", family=family)
                out[f"{op}_MBps.{family}"] = (coded / seconds / 1e6, "MB/s")
        return out

    def layer_context(self):
        k, p = self.SHAPES["block"]
        ctx = {}
        for family in ("fountain", "polar"):
            ctx[f"complete.{family}"] = self.complete["block", family]
        codecs = self.codecs["block"]
        ones = [codecs[f].parity_mask(j).bit_count() for f in ("fountain", "polar")
                for j in range(1, p + 1)]
        ctx["xor_bytes_per_block"] = sum(ones) * self.SIZE / 2
        ctx["op_count.mds"] = analytics.op_count("mds", k, p, self.SIZE).per_block
        ctx["op_count.xor"] = analytics.op_count("fountain", k, p, self.SIZE).per_block
        return ctx


class McLoss(Workload):
    """Monte-Carlo loss rate of a (16, 12) block for all three families, at
    one and at two workers. Each call gets a freshly built codec, so each
    call evaluates its distinct erasure patterns once, as a user's first
    call on a codec does. Set-up builds the codecs of the first round; each
    round builds those of the next one after its timed calls."""

    name = "mc_loss"
    why = ("erasure mask generation and the unique-pattern count dominate; the oracle runs "
           "warm, with a high cache hit ratio")
    N, K, PE = 16, 12, 0.05
    RECEIVERS = 2_000_000
    WORKERS = (1, 2)
    reference_work = staticmethod(reference.masks_seconds)

    def _build(self, family):
        if family == "mds":
            return gf256.build_mds(self.N, self.K)
        if family == "fountain":
            return fountain.FountainCode(self.K, self.seed, n=self.N)
        return polar.polar_for_parity(self.K, self.N - self.K, self.PE)

    def setup(self):
        self.codecs = {}
        seconds = dict.fromkeys(FAMILIES, 0)
        for family in FAMILIES:
            for workers in self.WORKERS:
                t0 = clock()
                self.codecs[family, workers] = self._build(family)
                seconds[family] += clock() - t0
        t0 = clock()
        exact = analytics.plr_mds(self.N, self.K, self.PE).plr
        self.mds_expected = exact
        self.mds_stderr = math.sqrt((_mds_second_moment(self.N, self.K, self.PE) - exact**2)
                                    / self.RECEIVERS)
        inputs = clock() - t0 + seconds["fountain"]
        return {"build_mds_s": seconds["mds"] * 1e-9,
                "construct_polar_s": seconds["polar"] * 1e-9, "inputs_s": inputs * 1e-9}

    def round(self):
        outputs = []
        recorded = EXPECTED["mc_loss"]["plr"] if self.seed == EXPECTED["default_seed"] else None
        for family in FAMILIES:
            plr = {}
            for workers in self.WORKERS:
                codec = self.codecs[family, workers]
                self.phase(f"w{workers}")
                t0 = clock()
                report = analytics.plr_empirical(codec, self.N, self.K, self.PE,
                                                 receivers=self.RECEIVERS, seed=self.seed,
                                                 workers=workers)
                t1 = clock()
                self.timed(Call("plr_empirical", f"w{workers}", family), t1 - t0)
                plr[workers] = report.plr
                self.check(report.receivers == self.RECEIVERS and 0.0 <= report.plr <= 1.0,
                           f"{family}: malformed report at workers={workers}")
            self.check(plr[1] == plr[2], f"{family}: workers=1 gave {plr[1]!r}, "
                       f"workers=2 gave {plr[2]!r}")
            if recorded is not None:
                self.check(plr[1] == recorded[family],
                           f"{family}: plr {plr[1]!r} differs from recorded {recorded[family]!r}")
            if family == "mds":
                self.check(abs(plr[1] - self.mds_expected) <= 5 * self.mds_stderr,
                           f"mds: plr {plr[1]!r} is more than 5 standard errors from "
                           f"plr_mds {self.mds_expected!r}")
            outputs.append(plr[1])
        self.codecs = {(family, workers): self._build(family) for family, workers in self.codecs}
        return outputs

    def named_metrics(self, call_s):
        receivers = len(FAMILIES) * self.RECEIVERS
        return {"mc_receivers_per_s": (receivers / self.sum_calls(call_s, phase="w1"), "1/s"),
                "mc_receivers_per_s_2w": (receivers / self.sum_calls(call_s, phase="w2"), "1/s")}

    def layer_context(self):
        return {"receivers": 2 * len(FAMILIES) * self.RECEIVERS}


def _mds_second_moment(n: int, k: int, p_e: float) -> float:
    """E[(lost sources / k)^2] per receiver for an MDS code, the variance
    term of the Monte-Carlo estimate's standard error."""
    total = 0.0
    for e in range(n - k + 1, n + 1):
        pe = math.comb(n, e) * p_e**e * (1.0 - p_e) ** (n - e)
        for i in range(max(1, e - (n - k)), min(e, k) + 1):
            total += (i / k) ** 2 * pe * analytics.systematic_erasures_pmf(e, i, n, k)
    return total


class PlanRepair(Workload):
    """Parity planning and incremental multicast repair.

    Phase "planner" runs the planner queries, the small polar one with the
    workload seed as the Monte-Carlo seed. Phase "multicast" replays repair
    of every pattern of up to EMAX losses among K_MULTICAST sources for polar
    and MDS, which draws no randomness at all.
    """

    name = "plan_repair"
    why = ("the decodability oracle runs cold and dominates the planner and multicast repair; "
           "mask generation takes about a tenth")
    # (family, k, pe, target, seeded): the k=16 query runs at the planner's
    # default seed, so its plan, and the number of parity counts it scans,
    # is the same at every workload seed
    QUERIES = (("polar", 16, 0.05, 1e-3, False), ("polar", 8, 0.05, 1e-3, True),
               ("mds", 10, 0.05, 1e-6, False))
    K_MULTICAST, EMAX, PE = 20, 3, 0.05

    def setup(self):
        t0 = clock()
        mds = gf256.build_mds(self.K_MULTICAST + self.EMAX, self.K_MULTICAST)
        t1 = clock()
        pol = polar.polar_for_parity(self.K_MULTICAST, self.EMAX, self.PE)
        t2 = clock()
        # polar replays its whole reservoir, mds its parity budget (as the CLI does)
        self.multicast_codecs = (("polar", pol, pol.parity_limit), ("mds", mds, self.EMAX))
        self.closed_form = _mds_repair_curve(self.K_MULTICAST, self.EMAX, self.PE)
        t3 = clock()
        return {"build_mds_s": (t1 - t0) * 1e-9, "construct_polar_s": (t2 - t1) * 1e-9,
                "inputs_s": (t3 - t2) * 1e-9}

    def round(self):
        recorded = EXPECTED["plan_repair"]
        default = self.seed == EXPECTED["default_seed"]
        self.phase("planner")
        plans = []
        for family, k, p_e, target, seeded in self.QUERIES:
            seed = {"seed": self.seed} if seeded else {}
            t0 = clock()
            plans.append(analytics.min_parity(family, k, p_e, target, **seed))
            self.timed(Call("min_parity", "planner", family, k), clock() - t0)
        self.evaluations = 0
        self.mc_receivers = 0
        for (family, k, p_e, target, seeded), plan in zip(self.QUERIES, plans):
            key = f"{family}/{k}"
            ok = plan is not None and plan.family == family and plan.k == k and plan.plr <= target
            self.check(ok, f"plan {key}: {plan!r} misses target {target}")
            if ok:
                self.evaluations += plan.p + 1
                if plan.method == "mc":
                    self.mc_receivers += plan.p * plan.receivers
            if default or not seeded:
                self.check(plan is not None and [plan.p, plan.plr] == recorded["plans"][key],
                           f"plan {key}: {plan!r} differs from recorded {recorded['plans'][key]}")

        self.phase("multicast")
        t0 = clock()
        patterns = multicast.enumerate_patterns(self.K_MULTICAST, self.EMAX, self.PE)
        self.timed(Call("enumerate_patterns", "multicast"), clock() - t0)
        curves = {}
        self.pattern_rounds = 0
        self.useful_calls = 0
        for family, codec, rounds in self.multicast_codecs:
            t0 = clock()
            table = multicast.simulate_incremental(codec, patterns, rounds=rounds)
            curve = multicast.weighted_cdf(table, patterns)
            self.timed(Call("repair", "multicast", family), clock() - t0)
            curves[family] = [list(point) for point in curve.points]
            self.pattern_rounds += len(patterns.patterns) * (rounds + 1)
            self.useful_calls += _useful_calls(table)
            if family == "mds":
                self.check(all(table.full_recovery_round(i) == len(pat.lost)
                               for i, pat in enumerate(patterns.patterns)),
                           "mds multicast: a pattern of i losses was not repaired at round i")
        self.check(len(curves["mds"]) == len(self.closed_form) and all(
            t == u and math.isclose(f, g, rel_tol=1e-12, abs_tol=1e-15)
            for (t, f), (u, g) in zip(curves["mds"], self.closed_form)),
            "mds multicast curve differs from its closed form")
        self.check(curves["polar"] == recorded["polar_curve"],
                   "polar multicast curve differs from the recorded points")
        outputs = ([None if p is None else (p.p, p.plr) for p in plans], curves)
        return outputs

    def named_metrics(self, call_s):
        return {"plan_s": (self.sum_calls(call_s, phase="planner"), "s"),
                "multicast_pattern_rounds_per_s": (
                    self.pattern_rounds / self.sum_calls(call_s, op="repair"), "1/s")}

    def layer_context(self):
        return {"evaluations": self.evaluations, "receivers": self.mc_receivers,
                "pattern_rounds": self.pattern_rounds, "useful_calls": self.useful_calls}


def _mds_repair_curve(k: int, e_max: int, p_e: float) -> list[list[float]]:
    """MDS repairs a pattern of i losses exactly at round i."""
    weight = [math.comb(k, i) * p_e**i * (1.0 - p_e) ** (k - i) for i in range(e_max + 1)]
    total = math.fsum(weight[1:])
    return [[t, math.fsum(weight[1:t + 1]) / total] for t in range(e_max + 1)]


def _useful_calls(table) -> int:
    """Oracle calls of simulate_incremental that repaired at least one more
    packet than the round before. The simulator stops calling the oracle for
    a pattern once it is fully repaired."""
    useful = 0
    for size, row in zip(table.lost_sizes, table.recovered):
        for t in range(1, len(row)):
            if row[t - 1] == size:
                break
            useful += row[t] > row[t - 1]
    return useful


WORKLOADS = {cls.name: cls for cls in (CodecBlocks, McLoss, PlanRepair)}
