#!/usr/bin/env python3
"""Wall-clock training benchmark for ddpkit.

    python3 perfbench/run.py --workload mlp_w2 --seed 1 --seconds 10 --trace 0

Builds the ddpkit libraries, ddp_launch and perfbench_worker into
.bench_build/ (first run only), then launches the workload through
ddp_launch and prints its metrics, one per line with its unit, then one JSON
line: {"correct", "attempted", "failed", "metrics"}. A run that fails its
correctness check, or cannot finish, still prints that line, with every
step counted as failed, and exits 1.

--trace 0 reports the end-to-end metrics: samples_per_s, step_ms_p50,
setup_s, peak_rss_mb, ok_step_frac, and prints step_ms_p95 beside them
without gating it. --trace 1 reports the
per-layer breakdown from a traced launch, next to an untraced one that gives
trace.overhead_frac. See README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LAUNCH = BUILD / "ddp_launch"
WORKER = BUILD / "perfbench_worker"

WARMUP_STEPS = 20
# Set-up-only launches per run; the training launch adds one more sample.
SETUP_LAUNCHES = 12
# The timed window is cut into this many parts; the fastest gives the
# gated step metrics.
PARTS = 5
# The printed p95 needs ten steps beyond it, so at least 200 timed steps.
MIN_TIMED_STEPS = 200
MIN_TRACED_STEPS = 30
# Every run ends within this many seconds, hung launches included.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures once, then lets the build tool bring everything up to
    date; output goes to a log that is shown only on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "--build", str(BUILD), "-j", "4"]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                raise BenchError("build failed:\n" + log.read_text()[-4000:])


def bench_env():
    """The driver owns the environment: one intra-op thread per rank, and
    no wire-chaos spec for CreateProcessGroupBackend to pick up."""
    env = dict(os.environ)
    env["DDPKIT_NUM_THREADS"] = "1"
    env.pop("DDPKIT_CHAOS_WIRE", None)
    env.pop("DDPKIT_CHAOS_SEED", None)
    return env


def host_speed_ms():
    """A fixed loop that uses no repo code: recorded before and after each
    run so host drift can be told apart from a regression. Not gated."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(200000):
            acc += (i % 7) * 0.5
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = bench_env()
        self.runs = ROOT / ".bench_build" / "runs" / str(os.getpid())
        self.launches = 0
        described = json.loads(subprocess.run(
            [str(WORKER), "--describe"], capture_output=True, text=True,
            check=True).stdout)
        if workload not in described:
            raise BenchError("unknown workload %r (have: %s)"
                             % (workload, ", ".join(sorted(described))))
        self.world = described[workload]["world"]
        self.batch = described[workload]["batch"]

    def launch(self, *worker_args):
        """One ddp_launch of the worker. Returns (t0_ns, launcher exit code,
        per-rank results); t0 is stamped just before the launcher starts."""
        out = self.runs / ("launch%d" % self.launches)
        self.launches += 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        remaining = self.deadline - time.monotonic()
        if remaining < 5:
            raise BenchError("out of time before launch %d" % self.launches)
        cmd = [str(LAUNCH), "--nproc=%d" % self.world,
               "--timeout-sec=%d" % int(remaining - 3), "--",
               str(WORKER), "--workload=" + self.workload,
               "--seed=%d" % self.seed, "--out=" + str(out)] + list(
                   worker_args)
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, env=self.env,
                                cwd=ROOT, start_new_session=True, text=True)
        try:
            log, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("launch timed out")
        ranks = []
        for r in range(self.world):
            path = out / ("rank%d.json" % r)
            if not path.exists():
                raise BenchError("rank %d wrote no result; launcher log:\n%s"
                                 % (r, log[-4000:]))
            ranks.append(json.loads(path.read_text()))
        if proc.returncode != 0:
            sys.stderr.write(log[-4000:])
        return t0, proc.returncode, ranks

    def cleanup(self):
        shutil.rmtree(self.runs, ignore_errors=True)


def setup_seconds(t0, ranks):
    """Driver's launch stamp to the moment the last rank was ready for
    step 0."""
    return (max(r["t_ready_ns"] for r in ranks) - t0) / 1e9


def check_train(ranks, returncode):
    """The benchmark's correctness check of one training launch. Returns
    (correct, attempted, failed, problems)."""
    problems = []
    if returncode != 0:
        problems.append("launcher exited %d" % returncode)
    for r in ranks:
        if r["error"]:
            problems.append("rank %d: %s" % (r["rank"], r["error"]))
        if not benchlib.loss_ok(r["losses"]):
            problems.append("rank %d: loss not finite or not below its "
                            "step-0 value" % r["rank"])
        if len(r["step_ns"]) != r["timed_steps"]:
            problems.append("rank %d ran %d of %d timed steps"
                            % (r["rank"], len(r["step_ns"]), r["timed_steps"]))
    if not benchlib.digests_agree([r["digest"] for r in ranks]):
        problems.append("parameter digests differ across ranks: %s"
                        % [r["digest"] for r in ranks])
    # A failed gradient sync ends a rank's run with an error, so a run that
    # passes the check had every step synced on every rank; one that fails
    # counts all its steps as failed.
    attempted = ranks[0]["warmup_steps"] + ranks[0]["timed_steps"]
    return not problems, attempted, attempted if problems else 0, problems


def unfinished(trace):
    """The result of a run that could not finish (a rank crashed, wrote no
    result or timed out): every planned step counts as failed."""
    if trace:
        attempted = 2 * (WARMUP_STEPS + MIN_TRACED_STEPS)
        metrics = {}
    else:
        attempted = WARMUP_STEPS + MIN_TIMED_STEPS
        metrics = {"ok_step_frac": (0.0, "fraction")}
    return False, attempted, attempted, [], metrics, []


def setup_launches(runner, count, *extra):
    """`count` launches that stop once every rank is ready for step 0.
    Returns (t0_ns, ranks) of each."""
    out = []
    for _ in range(count):
        t0, code, ranks = runner.launch("--phase=setup", *extra)
        if code != 0 or any(r["error"] for r in ranks):
            raise BenchError("set-up launch failed")
        out.append((t0, ranks))
    return out


def end_to_end(runner, seconds):
    # Half the set-up launches before the training launch and half after,
    # so that one short host slowdown cannot cover them all.
    before = setup_launches(runner, SETUP_LAUNCHES // 2)
    t0, code, ranks = runner.launch(
        "--phase=train", "--warmup=%d" % WARMUP_STEPS,
        "--seconds=%g" % seconds, "--min-steps=%d" % MIN_TIMED_STEPS)
    after = setup_launches(runner, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    setups = [setup_seconds(*launch) for launch in before + [(t0, ranks)]
              + after]
    correct, attempted, failed, problems = check_train(ranks, code)

    r0 = ranks[0]
    steps = r0["step_ns"]
    if not steps:
        raise BenchError("no timed steps")
    p95 = benchlib.percentile(steps, 0.95)
    # Printed, not gated: p95 sits where steps slowed by the host's short
    # speed dips begin, so it moves with the share of the window they cover
    # (README.md, "Noise").
    notes = ["%-22s %s over %d timed steps (not gated)" % (
        "step_ms_p95", "refused" if p95 is None else "%.6g ms" % (p95 / 1e6),
        len(steps))]
    first, last, pace = benchlib.fastest_part(
        r0["step_begin_ns"], r0["step_begin_ns"][0] + r0["window_ns"], PARTS)
    metrics = {
        "samples_per_s": (pace * runner.world * runner.batch, "1/s"),
        "step_ms_p50": (statistics.median(steps[first:last]) / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in ranks) / 1024.0, "MiB"),
        "ok_step_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return correct, attempted, failed, problems, metrics, notes


def per_layer(runner, seconds):
    setup_rows = []
    for t0, ranks in setup_launches(runner, SETUP_LAUNCHES, "--trace=1"):
        r0 = ranks[0]
        row = {k: (v[1] - v[0]) / 1e6 for k, v in r0["setup"].items()}
        row["launch"] = (r0["t_main_ns"] - t0) / 1e6
        setup_rows.append(row)

    # Half the time untraced (the base of trace.overhead_frac), half traced.
    train = ("--phase=train", "--warmup=%d" % WARMUP_STEPS,
             "--seconds=%g" % (seconds / 2.0),
             "--min-steps=%d" % MIN_TRACED_STEPS)
    _, code, plain = runner.launch(*train)
    ok_plain, att_plain, fail_plain, problems = check_train(plain, code)
    _, code, traced = runner.launch(*train, "--trace=1")
    ok_traced, att_traced, fail_traced, more = check_train(traced, code)
    problems += more

    spans = [[benchlib.Span(*s) for s in r["spans"]] for r in traced]
    calls = [benchlib.timed_calls(s) for s in spans]
    r0 = traced[0]
    rows = benchlib.step_layers(
        spans[0], r0["step_ns"], r0["copy_in_ns"], r0["copy_out_ns"],
        r0["buckets"], benchlib.wait_wire(calls, 0))

    def ms(key):
        return statistics.median(row[key] for row in rows) / 1e6, "ms"

    def count(key, unit="count"):
        # Counts repeat exactly from step to step; median_low keeps them
        # whole numbers.
        return statistics.median_low(row[key] for row in rows), unit

    def setup_ms(key):
        return statistics.median(row[key] for row in setup_rows), "ms"

    metrics = {
        "nn.forward_ms": ms("nn.forward"),
        "autograd.backward_ms": ms("autograd.backward"),
        "autograd.compute_ms": ms("autograd.compute"),
        "core.copy_in_ms": ms("core.copy_in"),
        "core.copy_out_ms": ms("core.copy_out"),
        "core.buckets": count("core.buckets"),
        "comm.calls": count("comm.calls"),
        "comm.bytes": count("comm.bytes", "B"),
        "comm.call_ms": ms("comm.call"),
        "comm.wait_ms": ms("comm.wait"),
        "comm.wire_ms": ms("comm.wire"),
        "optim.step_ms": ms("optim.step"),
        "data.batch_ms": ms("data.batch"),
        "step.accounted_frac": (statistics.median(
            row["accounted_frac"] for row in rows), "fraction"),
        "trace.overhead_frac": (
            statistics.median(r0["step_ns"])
            / statistics.median(plain[0]["step_ns"]) - 1.0, "fraction"),
        "tools.launch_ms": setup_ms("launch"),
        "comm.setup_ms": setup_ms("comm_setup"),
        "data.init_ms": setup_ms("data_init"),
        "nn.init_ms": setup_ms("nn_init"),
        "core.ddp_init_ms": setup_ms("ddp_init"),
    }
    return (ok_plain and ok_traced, att_plain + att_traced,
            fail_plain + fail_traced, problems, metrics, [])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2
    errors = (BenchError, subprocess.CalledProcessError, OSError, ValueError,
              KeyError)
    try:
        runner = Runner(args.workload, args.seed,
                        time.monotonic() + RUN_DEADLINE_S)
    except errors as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    host_before = host_speed_ms()
    measure = per_layer if args.trace else end_to_end
    try:
        correct, attempted, failed, problems, metrics, notes = measure(
            runner, args.seconds)
    except errors as err:
        sys.stderr.write("perfbench: run failed: %s\n" % err)
        correct, attempted, failed, problems, metrics, notes = unfinished(
            args.trace)
    finally:
        runner.cleanup()
    host_after = host_speed_ms()

    for problem in problems:
        sys.stderr.write("perfbench: check failed: %s\n" % problem)
    for name, (value, unit) in metrics.items():
        print("%-22s %.6g %s" % (name, value, unit))
    for note in notes:
        print(note)
    print("host_speed_ms before=%.3f after=%.3f (not gated)"
          % (host_before, host_after))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
