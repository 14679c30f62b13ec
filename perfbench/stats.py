"""Pure helpers of the repo benchmark: percentiles, spreads, the serving
schedule, the rate-ladder rules and span self times.

Everything here is deterministic and free of I/O so test_stats.py can pin it.
"""

import math
import random
import statistics

# Open-loop serving ladder (requests per second). The nominal rate is light
# load; the ladder climbs from there past the 2-replica server's capacity
# (about 3500-4500 rps on a 4-core x86 VM). Near capacity the server tips
# between small-batch and full-batch regimes at random, and a shared box
# stalls now and then, so a run measures the nominal rate in SEGMENTS
# segments spread over the run and climbs the ladder CLIMBS times.
NOMINAL_RPS = 500
LADDER_RPS = (2000, 2500, 2750, 3000, 3250, 3500, 3750, 4000, 4500, 5000)
SEGMENTS = 4
CLIMBS = 6
# Percentile reported as `tail_ms`. p99 moves by 30-100% between runs on a
# VM whose hypervisor steals CPU now and then; p90 stays within ~10%.
TAIL_Q = 90
LATENCY_LIMIT_MS = 25.0  # limit on a rung's p99 latency
MAX_FAILED_SHARE = 0.01  # limit on a rung's refused + shed + failed share
MAX_OWN_LATENESS_MS = 5.0  # generator lateness beyond which a rung is invalid
POOL_SIZE = 4096  # labelled samples the requests draw from
MIN_TAIL_BEYOND = 10  # samples a judged percentile must have beyond it


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it. Infinite values (refused requests) sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q * n / 100.0))


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def own_lateness_ms(offsets_us, lag_ms, submit_us):
    """Per-request generator lateness not explained by the previous submit()
    still blocking: max(0, start_i - max(due_i, end_{i-1})), in ms."""
    out = []
    prev_end_ms = -math.inf
    for off, lag, sub in zip(offsets_us, lag_ms, submit_us):
        due_ms = off / 1000.0
        start_ms = due_ms + lag
        out.append(max(0.0, start_ms - max(due_ms, prev_end_ms)))
        prev_end_ms = start_ms + sub / 1000.0
    return out


def backlog_grows(outstanding_end, rate_rps, limit_ms=LATENCY_LIMIT_MS):
    """A rung's backlog grows when, as its last request is sent, more requests
    are outstanding than the server could finish within the latency limit at
    the offered rate."""
    return outstanding_end > rate_rps * limit_ms / 1000.0


def judge_rung(rate_rps, latencies_ms, outstanding_end, own_lateness):
    """Verdict on one rung. `latencies_ms` holds math.inf for every request
    that was refused, shed or failed, so those miss the limit."""
    n = len(latencies_ms)
    failed = sum(1 for v in latencies_ms if math.isinf(v))
    p99 = percentile(latencies_ms, 99)
    valid = percentile(own_lateness, 99) <= MAX_OWN_LATENESS_MS
    grows = backlog_grows(outstanding_end, rate_rps)
    return {
        "rate": rate_rps,
        "p99_ms": p99,
        "failed_share": failed / n,
        "backlog_grows": grows,
        "valid": valid,
        "passes": (valid and p99 <= LATENCY_LIMIT_MS
                   and failed / n <= MAX_FAILED_SHARE and not grows),
    }


def rate_at_slo(verdicts):
    """Highest rate whose rung passed; 0 when none did. Invalid rungs (the
    generator, not the server, ran late) never pass."""
    return max((v["rate"] for v in verdicts if v["passes"]), default=0)


def mean_climb_rate(nominal, climbs):
    """Mean over ladder climbs of each climb's rate_at_slo, every climb
    judged together with the nominal rung (all its segments). The mean of a
    few climbs resolves finer than the ladder's steps."""
    return statistics.fmean(rate_at_slo([nominal, *climb]) for climb in climbs)


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    covered by the union of its children. Spans are (id, parent, name,
    start, end) tuples."""
    children = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def serve_schedule(seed, seconds, trace):
    """Seeded Poisson arrivals for every step of a serve_lenet run, as
    (label, rate, server, [(offset_us, sample_index), ...]).

    A warm-up at the nominal rate on each server, then CLIMBS climbs of the
    ladder with SEGMENTS nominal segments (7% of the run each) spread
    between them (labelled climb0, climb1, ...). A trace run makes half of each,
    every nominal segment once on the untraced and once on the traced
    server. Every measured step has at least 1000 requests, so its p99 has
    at least ten samples beyond it."""
    rng = random.Random(seed)

    def step(label, rate, server, count):
        t = 0.0
        requests = []
        for _ in range(count):
            t += rng.expovariate(rate)
            requests.append((round(t * 1e6, 1), rng.randrange(POOL_SIZE)))
        return (label, rate, server, requests)

    min_count = 100 * MIN_TAIL_BEYOND
    segment = max(min_count, int(NOMINAL_RPS * 0.07 * seconds))
    servers = (0, 1) if trace else (0,)
    steps = [step("warm", NOMINAL_RPS, server, NOMINAL_RPS) for server in servers]
    climbs, segments = (CLIMBS // 2, SEGMENTS // 2) if trace else (CLIMBS, SEGMENTS)
    for i in range(climbs):
        if i * segments % climbs < segments:  # spreads the segments evenly
            steps.extend(step("nominal", NOMINAL_RPS, server, segment)
                         for server in servers)
        steps.extend(step(f"climb{i}", rate, 0, min_count)
                     for rate in LADDER_RPS)
    return steps


def schedule_text(steps):
    """The schedule in the line format gsbench reads on stdin."""
    lines = [str(len(steps))]
    for label, rate, server, requests in steps:
        lines.append(f"{label} {rate} {server} {len(requests)}")
        lines.extend(f"{off} {idx}" for off, idx in requests)
    return "\n".join(lines) + "\n"
