#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, end-to-end metrics from
an untraced run and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload serve_lenet --seed 1 --seconds 30 --trace 0

Run from the checkout root. Builds the library and the harness from source
into .bench_build/perfbench, runs the workload, checks the correctness gates
(a failing gate exits 1 and prints no metrics), writes a full record with an
env block to .bench_build/perfbench/records/, and prints as its last stdout
line {"correct", "attempted", "failed", "metrics"}. See README.md here.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402  (sibling module)

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_lenet", "infer_convnet_nonideal", "compress_lenet")
RUN_TIMEOUT_S = 170
STEP_KINDS = ("conv", "linear", "pool", "relu")
MVM_KINDS = ("conv", "linear")

# name -> unit. A layer a workload bypasses reads 0 there.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "share",
    "success_share": "share",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "crossbar_area_ratio": "share",
    "routing_area_ratio": "share",
}
PER_LAYER = {
    "shard.submit_us_p50": "us",
    "shard.submit_us_p99": "us",
    "shard.queue_ms_p50": "ms",
    "shard.queue_ms_p99": "ms",
    "shard.execute_ms_p50": "ms",
    "shard.batch_mean": "count",
    "shard.stolen_share": "share",
    "shard.outstanding_end": "count",
    "shard.rejected": "count",
    "shard.shed": "count",
    "shard.admission_rejected": "count",
    "loadgen.lag_ms_p99": "ms",
    "executor.us_per_sample_b1": "us",
    "executor.us_per_sample_b8": "us",
    "executor.us_per_sample_b32": "us",
    "executor.us_per_sample_b64": "us",
    "executor.batch_gain": "ratio",
    **{f"executor.step_us.{k}": "us" for k in STEP_KINDS},
    **{f"executor.mvm_share.{k}": "share" for k in MVM_KINDS},
    "executor.dac_per_sample": "count",
    "executor.adc_per_sample": "count",
    "executor.mvm_per_sample": "count",
    "executor.psum_bytes_per_sample": "bytes",
    "executor.tiles_run": "count",
    "executor.tiles_skipped": "count",
    "executor.ns_per_adc": "ns",
    "program.compile_s": "s",
    "program.tiles": "count",
    "program.cells_ratio": "share",
    "nn.pretrain_s": "s",
    "nn.train_sps": "1/s",
    "nn.eval_s": "s",
    "core.to_lowrank_s": "s",
    "core.report_s": "s",
    "compress.clipping_s": "s",
    "compress.clip_events": "count",
    "compress.deletion_s": "s",
    "compress.deleted_wire_share": "share",
    "runtime.eval_s": "s",
    "obs.trace_overhead_share": "share",
    "obs.accounted_share": "share",
}


class GateFailure(Exception):
    """A correctness gate failed: the run reports no numbers."""


def gate(ok, message):
    if not ok:
        raise GateFailure(message)


# --- build and run -------------------------------------------------------------


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: no src/ next to perfbench/ — run from a "
                         "full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        _check_call(["cmake", "-S", HERE, "-B", BUILD, *generator,
                     "-DCMAKE_BUILD_TYPE=Release"])
    _check_call(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD, "gsbench")


def _check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def cpu_ticks():
    """Aggregate CPU tick counters from /proc/stat (empty where absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def run_harness(binary, workload, seed, seconds, trace):
    """Runs gsbench; returns its raw measurements plus the share of CPU time
    the hypervisor stole from this machine meanwhile (env.steal_share)."""
    stdin = None
    if workload == "serve_lenet":
        stdin = stats.schedule_text(stats.serve_schedule(seed, seconds, trace))
    before = cpu_ticks()
    result = subprocess.run(
        [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        input=stdin, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise SystemExit(f"perfbench: gsbench exited {result.returncode}")
    raw = json.loads(result.stdout)
    delta = [b - a for a, b in zip(before, cpu_ticks())]
    if len(delta) > 7 and sum(delta) > 0:
        raw["env"]["steal_share"] = delta[7] / sum(delta)
    return raw


# --- shared per-layer arithmetic ------------------------------------------------


def layer_common(raw, layers):
    """program, executor, nn, core and runtime metrics every workload has."""
    program = raw["program"]
    layers["program.compile_s"] = stats.median(program["compile_s"])
    layers["program.tiles"] = program["tiles"]
    layers["program.cells_ratio"] = program["cells_ratio"]
    if "train" in raw and "pretrain_s" in raw["train"]:
        layers["nn.pretrain_s"] = raw["train"]["pretrain_s"]
        layers["nn.train_sps"] = raw["train"]["samples"] / raw["train"]["pretrain_s"]
    if "report" in raw:
        layers["core.report_s"] = raw["report"]["report_s"]
        layers["compress.deleted_wire_share"] = raw["report"]["deleted_wire_share"]
    if "eval_s" in raw:
        layers["runtime.eval_s"] = raw["eval_s"]
    if "digital_eval_s" in raw:
        layers["nn.eval_s"] = raw["digital_eval_s"]
    layers.update(executor_layers(raw["executor"]))


def executor_layers(ex):
    """Per-sample times by batch size, energy-proxy counts, and per-step-kind
    times and MVM shares from the traced batch-32 forwards."""
    out = {}
    us = {b: stats.median(ex["us_per_sample"][f"b{b}"]) for b in (1, 8, 32, 64)}
    for b, v in us.items():
        out[f"executor.us_per_sample_b{b}"] = v
    out["executor.batch_gain"] = us[1] / us[32]
    for key in ("dac_per_sample", "adc_per_sample", "mvm_per_sample",
                "psum_bytes_per_sample", "tiles_run", "tiles_skipped"):
        out[f"executor.{key}"] = ex[key]
    out["executor.ns_per_adc"] = (us[32] * 1000.0 / ex["adc_per_sample"]
                                  if ex["adc_per_sample"] else 0.0)
    # Per traced forward: time and self time (step minus its stage spans)
    # of the steps of each kind; medians over the forwards.
    step_kind = {f"step:{name}": kind for name, kind in ex["steps"]}
    total = {k: [] for k in STEP_KINDS}
    own = {k: [] for k in STEP_KINDS}
    for spans in ex["b32_traces"]:
        selfs = stats.self_times(spans)
        for kind in STEP_KINDS:
            mine = [(sid, end - start) for sid, parent, name, start, end in spans
                    if parent == 1 and step_kind.get(name) == kind]
            total[kind].append(sum(d for _, d in mine))
            own[kind].append(sum(selfs[sid] for sid, _ in mine))
    for kind in STEP_KINDS:
        out[f"executor.step_us.{kind}"] = stats.median(total[kind]) / 32
    for kind in MVM_KINDS:
        shares = [1.0 - o / t for o, t in zip(own[kind], total[kind]) if t]
        out[f"executor.mvm_share.{kind}"] = stats.median(shares) if shares else 0.0
    return out


def executor_accounting(ex):
    """(overhead share, accounted share) of the traced batch-32 forwards:
    traced over untraced time, and the step spans' sum over the untraced
    forward time (medians)."""
    plain = stats.median(ex["b32_untraced_s"])
    traced = stats.median(ex["b32_traced_s"])
    steps_us = stats.median([
        sum(end - start for _, parent, name, start, end in spans
            if parent == 1 and name.startswith("step:"))
        for spans in ex["b32_traces"]])
    return traced / plain - 1.0, steps_us / 1e6 / plain


# --- workloads -------------------------------------------------------------------


def serve_lenet(raw, trace):
    steps = [s for s in raw["steps"] if s["label"] != "warm"]
    gate(raw["parity_max_diff"] <= 1e-4,
         f"ideal-device parity {raw['parity_max_diff']:.3g} > 1e-4")
    climbs = {}
    for s in steps:
        where = f"{s['label']} step at {s['rate']} rps"
        gate(s["unresolved"] == 0, f"{where}: {s['unresolved']} futures never resolved")
        gate(s["mismatched"] == 0,
             f"{where}: {s['mismatched']} served rows differ from Executor::forward")
        gate(s["count"] == s["completed"] + s["rejected"] + s["shed"] + s["failed"],
             f"{where}: submitted != completed + rejected + shed + failed")
        gate(s["ok"] == s["completed"], f"{where}: resolved futures disagree with "
             "the server's completed count")
        s["latency"] = [v if v is not None and v >= 0 else math.inf
                        for v in s["latency_ms"]]
        s["own_lateness"] = stats.own_lateness_ms(s["offset_us"], s["lag_ms"],
                                                  s["submit_us"])
        if s["label"].startswith("climb"):
            climbs.setdefault(s["label"], []).append(stats.judge_rung(
                s["rate"], s["latency"], s["outstanding_end"], s["own_lateness"]))
    served = sum(s["ok"] for s in steps)
    gate(served > 0, "no request was served")
    nominal = [s for s in steps if s["label"] == "nominal"]
    plain = [s for s in nominal if s["server"] == 0]
    lat = [v for s in plain for v in s["latency"]]
    nominal_verdict = stats.judge_rung(
        stats.NOMINAL_RPS, lat, max(s["outstanding_end"] for s in plain),
        [v for s in plain for v in s["own_lateness"]])
    # Medians over the nominal segments, which are spread over the run.
    seg_p50 = [stats.percentile(s["latency"], 50) for s in plain]
    seg_tail = [stats.percentile(s["latency"], stats.TAIL_Q) for s in plain]
    e2e = {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "accuracy": sum(s["correct"] for s in steps) / served,
        "success_share": sum(s["ok"] for s in plain) / len(lat),
        "p50_ms": stats.median(seg_p50),
        "tail_ms": stats.median(seg_tail),
        "throughput_per_s": stats.mean_climb_rate(nominal_verdict,
                                                  list(climbs.values())),
        "crossbar_area_ratio": raw["report"]["crossbar_area_ratio"],
        "routing_area_ratio": raw["report"]["routing_area_ratio"],
    }
    gate(not math.isinf(e2e["tail_ms"]), "most nominal segments refused, shed "
         f"or failed over {100 - stats.TAIL_Q}% of their requests")
    attempted = len(lat)
    failed = sum(1 for v in lat if math.isinf(v))
    details = {"nominal_requests": len(lat), "segment_p50_ms": seg_p50,
               "segment_tail_ms": seg_tail,
               "segment_p99_ms": [stats.percentile(s["latency"], 99)
                                  for s in plain],
               "nominal": nominal_verdict, "climbs": climbs}
    layers = {}
    if trace:
        layers.update(serve_layers(raw, steps, plain, nominal))
    return e2e, layers, attempted, failed, details


def serve_layers(raw, steps, plain, nominal):
    layers = {}
    layer_common(raw, layers)
    layers["core.to_lowrank_s"] = raw["to_lowrank_s"]
    submit = [v for s in plain for v in s["submit_us"]]
    layers["shard.submit_us_p50"] = stats.percentile(submit, 50)
    layers["shard.submit_us_p99"] = stats.percentile(submit, 99)
    layers["loadgen.lag_ms_p99"] = stats.percentile(
        [v for s in plain for v in s["lag_ms"]], 99)
    traced = [s for s in nominal if s["server"] == 1]
    phase = {"submit": [], "queue": [], "batch": [], "execute": [], "reply": []}
    for s in traced:
        for spans in s["traces"]:
            by_name = {name: end - start for _, _, name, start, end in spans}
            for name in phase:
                if name in by_name:
                    phase[name].append(by_name[name] / 1000.0)
    for name in ("queue", "execute"):
        gate(phase[name], f"traced nominal step recorded no {name} spans")
    layers["shard.queue_ms_p50"] = stats.percentile(phase["queue"], 50)
    layers["shard.queue_ms_p99"] = stats.percentile(phase["queue"], 99)
    layers["shard.execute_ms_p50"] = stats.percentile(phase["execute"], 50)
    # Blocking path of one request: generator lateness, submit, queue, batch
    # (execute inside it), reply — against the untraced p50 latency.
    lag = [v for s in traced for v in s["lag_ms"]]
    accounted = (stats.median(lag) + sum(stats.median(phase[n]) for n in
                                         ("submit", "queue", "batch", "reply")
                                         if phase[n]))
    untraced_p50 = stats.percentile([v for s in plain for v in s["latency"]], 50)
    traced_p50 = stats.percentile([v for s in traced for v in s["latency"]], 50)
    layers["obs.accounted_share"] = accounted / untraced_p50
    layers["obs.trace_overhead_share"] = traced_p50 / untraced_p50 - 1.0
    rungs = [s for s in steps if s["label"].startswith("climb")]
    completed = sum(s["completed"] for s in rungs)
    batches = sum(s["batches"] for s in rungs)
    layers["shard.batch_mean"] = completed / batches if batches else 0.0
    layers["shard.stolen_share"] = (sum(s["stolen_batches"] for s in rungs) / batches
                                    if batches else 0.0)
    layers["shard.outstanding_end"] = max(s["outstanding_end"] for s in rungs)
    for key in ("rejected", "shed", "admission_rejected"):
        layers[f"shard.{key}"] = sum(s[key] for s in rungs)
    return layers


def infer_convnet_nonideal(raw, trace):
    batch_s = raw["batch_s"]
    gate(raw["evaluated"] == len(batch_s) * raw["batch"],
         f"evaluated {raw['evaluated']} samples, expected "
         f"{len(batch_s)} batches x {raw['batch']}")
    gate(len(batch_s) >= raw["held_out"] / raw["batch"],
         "the first pass over the held-out set did not complete")
    gate(raw["mismatched_batches"] == 0,
         f"{raw['mismatched_batches']} batches differ from the first pass")
    ms = [v * 1000.0 for v in batch_s]
    e2e = {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "accuracy": raw["first_pass_correct"] / raw["held_out"],
        "success_share": raw["evaluated"] / (len(batch_s) * raw["batch"]),
        "p50_ms": stats.percentile(ms, 50),
        "tail_ms": stats.percentile(ms, stats.TAIL_Q),
        "throughput_per_s": raw["evaluated"] / sum(batch_s),
        "crossbar_area_ratio": raw["report"]["crossbar_area_ratio"],
        "routing_area_ratio": raw["report"]["routing_area_ratio"],
    }
    layers = {}
    if trace:
        layer_common(raw, layers)
        layers["runtime.eval_s"] = (stats.median(batch_s) * raw["held_out"]
                                    / raw["batch"])
        overhead, accounted = executor_accounting(raw["executor"])
        layers["obs.trace_overhead_share"] = overhead
        layers["obs.accounted_share"] = accounted
    details = {"batches": len(batch_s)}
    return e2e, layers, int(raw["evaluated"]), 0, details


def compress_lenet(raw, trace):
    jobs = raw["jobs"] + ([raw["phased_job"]] if trace else [])
    for job in jobs:
        gate(job["crossbar_area_ratio"] == job["recomputed_crossbar_area_ratio"]
             and job["routing_area_ratio"] == job["recomputed_routing_area_ratio"],
             "build_ncs_report on the compressed network disagrees with the "
             "pipeline's final report")
    first = jobs[0]
    for job in jobs[1:]:
        gate(all(job[k] == first[k] for k in ("accuracy", "crossbar_area_ratio",
                                              "routing_area_ratio")),
             "repeated jobs on the same inputs produced different results")
    if trace:
        gate(raw["phased_matches"] == 1, "the phased pipeline diverged from "
             "core::run_group_scissor")
    times = [job["seconds"] for job in raw["jobs"]]
    e2e = {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "accuracy": first["accuracy"],
        "success_share": 1.0,
        "p50_ms": stats.median(times) * 1000.0,
        "tail_ms": stats.percentile(times, stats.TAIL_Q) * 1000.0,
        "throughput_per_s": raw["sgd_samples"] / stats.median(times),
        "crossbar_area_ratio": first["crossbar_area_ratio"],
        "routing_area_ratio": first["routing_area_ratio"],
    }
    layers = {}
    if trace:
        layers.update(compress_layers(raw, stats.median(times)))
    details = {"jobs": len(times)}
    return e2e, layers, len(jobs), 0, details


def compress_layers(raw, job_s):
    layers = {}
    layer_common(raw, layers)
    phases = raw["phases"]
    layers["nn.pretrain_s"] = phases["pretrain_s"]
    layers["nn.train_sps"] = raw["pretrain_samples"] / phases["pretrain_s"]
    layers["nn.eval_s"] = phases["eval_s"]
    layers["core.to_lowrank_s"] = phases["to_lowrank_s"]
    layers["core.report_s"] = phases["report_s"]
    layers["compress.clipping_s"] = phases["clipping_s"]
    layers["compress.deletion_s"] = phases["deletion_s"]
    layers["runtime.eval_s"] = phases["runtime_eval_s"]
    layers["compress.clip_events"] = raw["phased_job"]["clip_events"]
    layers["compress.deleted_wire_share"] = raw["phased_job"]["deleted_wire_share"]
    phased_s = raw["phased_job"]["seconds"]
    layers["obs.trace_overhead_share"] = phased_s / job_s - 1.0
    layers["obs.accounted_share"] = sum(phases.values()) / job_s
    return layers


# --- main ------------------------------------------------------------------------


def env_block(raw):
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(),
            "GS_NUM_THREADS": os.environ.get("GS_NUM_THREADS", ""),
            "commit": commit, **raw.get("env", {})}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    raw = run_harness(binary, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    handler = globals()[args.workload]
    try:
        e2e, layers, attempted, failed, details = handler(raw, bool(args.trace))
    except GateFailure as e:
        print(f"perfbench: correctness gate failed: {e}", file=sys.stderr)
        return 1

    if args.trace:
        units = PER_LAYER
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
    else:
        units = END_TO_END
        values = e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": env_block(raw), "attempted": attempted, "failed": failed,
              "metrics": metrics, "details": details}
    records = os.path.join(BUILD, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)

    env = record["env"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} gs_num_threads={env.get('gs_num_threads')} "
          f"build={env.get('build_type')} commit={env['commit'][:12]} "
          f"steal={env.get('steal_share', 0):.1%}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
