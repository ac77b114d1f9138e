"""Arithmetic of the wall-clock training benchmark, kept apart from the
process orchestration in run.py so test_perfbench.py can check it on
synthetic stamps.

Stamps are CLOCK_MONOTONIC nanoseconds. A span, as perfbench_worker writes
it, is [name, step, parent, start_ns, end_ns, bytes]: `parent` is the index
of the enclosing span in the same rank's list (-1 for none) and `step` the
training step (negative during set-up and warm-up).
"""

import math
from collections import namedtuple

Span = namedtuple("Span", "name step parent start end bytes")

LAYER_SPANS = ("data.batch", "nn.forward", "autograd.backward", "optim.step")


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile of `values`, or None when fewer than
    `min_beyond` samples lie beyond it (a tail that thin is not measured)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def fastest_part(begins, window_end, parts=5):
    """The least disturbed stretch of the timed window.

    The window is cut into `parts` equal runs of consecutive steps, and each
    part's pace is its step count over its total wall time (its first step's
    start to the next part's, or `window_end`), so stalls inside a part
    count. Interference from the host only ever slows steps, so the fastest
    part is the closest to the code's own speed, while a slower code slows
    every part. Returns (first step, last step + 1, steps per second).
    """
    n = len(begins)
    cuts = [round(i * n / parts) for i in range(parts + 1)]
    best = None
    for a, b in zip(cuts, cuts[1:]):
        end = begins[b] if b < n else window_end
        pace = (b - a) / ((end - begins[a]) / 1e9)
        if best is None or pace > best[2]:
            best = (a, b, pace)
    return best


def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, cur_a, cur_b = 0, None, None
    for a, b in sorted((max(lo, a), min(hi, b)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is not None and a <= cur_b:
            cur_b = max(cur_b, b)
            continue
        if cur_b is not None:
            total += cur_b - cur_a
        cur_a, cur_b = a, b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span, children):
    """A span's duration minus the part of it its child spans cover."""
    return (span.end - span.start) - covered(
        span.start, span.end, [(c.start, c.end) for c in children])


def wait_wire(per_rank_calls, rank):
    """Splits `rank`'s time in each collective into waiting and moving.

    `per_rank_calls[r]` lists rank r's collectives in issue order as spans;
    every rank issues the same sequence. Wait runs from this rank's entry to
    the last rank's entry into the same collective; wire runs from then to
    this rank's exit. Returns (wait, wire) per collective.
    """
    lengths = {len(calls) for calls in per_rank_calls}
    if len(lengths) != 1:
        raise ValueError("ranks issued different numbers of collectives: %s"
                         % sorted(lengths))
    out = []
    for i, mine in enumerate(per_rank_calls[rank]):
        last = max(calls[i].start for calls in per_rank_calls)
        out.append((last - mine.start, mine.end - last))
    return out


def digests_agree(digests):
    """DDP's replica contract: every rank ends with rank 0's parameters."""
    return bool(digests) and bool(digests[0]) and all(
        d == digests[0] for d in digests)


def loss_ok(losses, tail=10):
    """Every loss finite, and the mean of the last `tail` steps below the
    step-0 loss (a mean, so one hard batch at the end cannot fail it)."""
    if not losses or not all(math.isfinite(x) and x < 1e300 for x in losses):
        return False
    last = losses[-tail:]
    return sum(last) / len(last) < losses[0]


def timed_calls(spans):
    """A rank's collectives inside timed steps, in issue order."""
    return [s for s in spans if s.step >= 0 and s.name.startswith("comm.")]


def step_layers(spans, step_ns, copy_in_ns, copy_out_ns, buckets, splits):
    """Per-step layer times (ns) and counts for one rank's traced run.

    `splits` holds this rank's (wait, wire) per timed collective, in the
    order of timed_calls(spans). Returns one dict per timed step; `step_ns[s]`
    is the step's wall time, the base of `accounted_frac`.
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    roots = [i for i, s in enumerate(spans) if s.name == "step" and s.step >= 0]
    if len(roots) != len(step_ns):
        raise ValueError("%d step spans for %d timed steps"
                         % (len(roots), len(step_ns)))
    split_of = dict(zip((id(c) for c in timed_calls(spans)), splits))
    rows = []
    for s, root in enumerate(roots):
        layer = {spans[i].name: i for i in children.get(root, [])}
        missing = [n for n in LAYER_SPANS if n not in layer]
        if missing:
            raise ValueError("step %d lacks spans %s" % (s, missing))
        dur = {n: spans[layer[n]].end - spans[layer[n]].start
               for n in LAYER_SPANS}
        comm = {n: [spans[i] for i in children.get(layer[n], [])
                    if spans[i].name.startswith("comm.")]
                for n in ("nn.forward", "autograd.backward")}
        calls = comm["nn.forward"] + comm["autograd.backward"]
        backward = spans[layer["autograd.backward"]]
        backward_comm = dur["autograd.backward"] - self_time(
            backward, comm["autograd.backward"])
        rows.append({
            "data.batch": dur["data.batch"],
            "nn.forward": self_time(spans[layer["nn.forward"]],
                                    comm["nn.forward"]),
            "autograd.backward": dur["autograd.backward"],
            "autograd.compute": (dur["autograd.backward"] - backward_comm
                                 - copy_in_ns[s] - copy_out_ns[s]),
            "core.copy_in": copy_in_ns[s],
            "core.copy_out": copy_out_ns[s],
            "core.buckets": buckets[s],
            "comm.calls": len(calls),
            "comm.bytes": sum(c.bytes for c in calls),
            "comm.call": sum(c.end - c.start for c in calls),
            "comm.wait": sum(split_of[id(c)][0] for c in calls),
            "comm.wire": sum(split_of[id(c)][1] for c in calls),
            "optim.step": dur["optim.step"],
            "accounted_frac": sum(dur.values()) / step_ns[s],
        })
    return rows
