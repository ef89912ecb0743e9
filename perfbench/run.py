#!/usr/bin/env python3
"""The repo's benchmark: one workload per process, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve_churn --seed 3 --trace 1

An untraced run sets up and runs a warm-up round, then passes over 4
inputs drawn from ``--seed`` for about ``--seconds``, with the host's
speed sampled throughout (pace.py).  It checks every simulated output
against its golden oracle and every pass against the first, and prints
one JSON object as the last line of standard output, holding the
end-to-end metrics.  With ``--trace 1`` one untraced reference round
runs first, then traced rounds on the same input, and the object holds
the per-layer metrics.  README.md in this directory has the details.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Settings that change what a run measures, fixed here whatever the
#: caller's environment holds.  Every other ``REPRO_*`` variable (trace,
#: faults, guard, cache directory, scale, ...) is removed, so the exec
#: disk cache is off, the guard is at its default and nothing is
#: injected.
PINNED_ENV = {"REPRO_SIM_CORE": "fast", "REPRO_RESILIENCE": "off"}

#: A run draws INPUTS input sets from ``--seed``: input k of seed s is
#: s * SEED_STRIDE + k, so two runs share inputs only when they share
#: ``--seed``, and input 0 of seed 0 is the repo's published point.
#: Averaging over several inputs keeps one input's share of work out
#: of the run's figures.
INPUTS = 4
SEED_STRIDE = 1000
#: A pass sets up and runs each input once.  A run makes passes until
#: the next would end after ``--seconds``, and at least one.  Its times
#: are scaled to the tuning host's usual speed (pace.py).
#: Reference slices timed right before and right after each set-up and
#: each timed phase.
EDGE_SLICES = 8

#: Share of ``figures`` wall time above which device set-up plus
#: metrics building would contradict the workload's stated reason.
FIGURES_LAUNCH_OVERHEAD_MAX = 0.05
#: Share of ``serve_sparse`` wall time it must reach to count as large.
SPARSE_LAUNCH_OVERHEAD_MIN = 0.25
#: Share of the extra traced ``serve_churn`` wall time over a traced
#: ``serve_sparse`` round that tree builds plus mutation must explain.
CHURN_EXPLAINED_MIN = 0.5


def pin_environment() -> dict:
    removed = sorted(k for k in os.environ
                     if k.startswith("REPRO_") and k not in PINNED_ENV)
    for key in removed:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    return {"env": dict(PINNED_ENV), "removed": removed,
            "exec_disk_cache": False, "guard": "default",
            "faults": None, "tracer": None}


def timed(fn, recorder, name):
    """``fn()`` timed as a root span when tracing, else by the clock;
    returns (seconds, result, span index or None)."""
    if recorder is None:
        started = time.perf_counter()
        result = fn()
        return time.perf_counter() - started, result, None
    root = recorder.enter(name, "bench")
    try:
        result = fn()
    finally:
        span = recorder.exit(root)
    return span.duration, result, root


def one_round(workload, seed: int, recorder=None):
    """Set up and run once; returns (setup_s, wall_s, Round, run root)."""
    gc.collect()
    setup_s, state, _ = timed(lambda: workload.setup(seed, recorder),
                              recorder, "bench.setup")
    wall_s, result, root = timed(lambda: workload.run(state, recorder),
                                 recorder, "bench.run")
    return setup_s, wall_s, result, root


def paced(fn):
    """``fn()`` with the host's speed sampled before, during and after
    it; returns (seconds scaled to the tuning host's usual speed,
    result, raw seconds, pacer)."""
    import workloads
    from pace import Pacer

    pacer = workloads.PACER = Pacer()
    pacer.sample(EDGE_SLICES)
    started = time.perf_counter()
    try:
        result = fn()
    finally:
        workloads.PACER = None
    raw = time.perf_counter() - started - pacer.spent_s
    pacer.sample(EDGE_SLICES)
    return pacer.scaled(raw), result, raw, pacer


def paced_round(workload, seed: int):
    """Set up and run once untraced; returns (setup_s, wall_s, Round,
    (raw setup_s, raw wall_s)), the first two scaled to the tuning
    host's usual speed."""
    gc.collect()
    setup_s, state, setup_raw, _ = paced(lambda: workload.setup(seed))
    wall_s, result, wall_raw, pacer = paced(lambda: workload.run(state))
    print(f"round seed={seed}: wall {wall_raw:.4f}s as measured, "
          f"{wall_s:.4f}s scaled; {len(pacer.samples)} slices of mean "
          f"{statistics.fmean(pacer.samples) * 1e3:.3f} ms")
    return setup_s, wall_s, result, (setup_raw, wall_raw)


def input_seeds(seed: int) -> list:
    return [seed * SEED_STRIDE + k for k in range(INPUTS)]


def untraced(workload, seed: int, seconds: float):
    """One untimed warm-up round, then passes over the run's inputs;
    returns (warm-up round, passes)."""
    seeds = input_seeds(seed)
    warmup = paced_round(workload, seeds[0])
    started = time.perf_counter()
    passes = []
    while True:
        passes.append([paced_round(workload, s) for s in seeds])
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return warmup, passes


def run_digest(rounds) -> str:
    text = "".join(r[2].digest() for r in rounds)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def end_to_end(passes) -> dict:
    """``setup_s`` is the median over all set-ups; ``wall_s`` the mean
    over inputs of each input's median over passes.  The simulated
    figures come from the first pass, since every pass repeats it."""
    from workloads import nearest_rank

    rounds = [r for p in passes for r in p]
    attempted = sum(r[2].attempted for r in rounds)
    failed = sum(r[2].failed for r in rounds)
    virtual_ms = sorted(ms for r in passes[0] for ms in r[2].virtual_ms)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = [statistics.median(p[k][1] for p in passes)
            for k in range(INPUTS)]
    return {
        "setup_s": (statistics.median(r[0] for r in rounds), "s"),
        "wall_s": (statistics.fmean(wall), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "ok_frac": ((attempted - failed) / attempted if attempted else 0.0,
                    "ratio"),
        "sim_cycles": (statistics.fmean(r[2].sim_cycles for r in passes[0]),
                       "cycles"),
        "virtual_p50_ms": (nearest_rank(virtual_ms, 50) or 0.0,
                           "virtual_ms"),
        "virtual_p99_ms": (nearest_rank(virtual_ms, 99) or 0.0,
                           "virtual_ms"),
    }


def expectations(name: str, layer: dict, untraced_wall: float,
                 sparse_layer=None) -> list:
    """Whether the workload's stated reason holds, as printable lines."""
    m = layer["metrics"]
    launch_overhead = m["gpu.device_setup_s"] + m["obs.build_metrics_s"]
    share = launch_overhead / untraced_wall if untraced_wall else 0.0
    lines = []
    if name == "figures":
        lines.append((share < FIGURES_LAUNCH_OVERHEAD_MAX,
                      f"device set-up + build_metrics = {share:.1%} of "
                      f"wall (expected < "
                      f"{FIGURES_LAUNCH_OVERHEAD_MAX:.0%})"))
    elif name == "serve_sparse":
        lines.append((share >= SPARSE_LAUNCH_OVERHEAD_MIN,
                      f"device set-up + build_metrics = {share:.1%} of "
                      f"wall (expected >= "
                      f"{SPARSE_LAUNCH_OVERHEAD_MIN:.0%})"))
    elif name == "serve_churn" and sparse_layer is not None:
        extra = layer["wall_s"] - sparse_layer["wall_s"]
        explained = sum(layer["self_s"][key] - sparse_layer["self_s"][key]
                        for key in ("trees", "mutation"))
        ratio = explained / extra if extra > 0 else 0.0
        lines.append((ratio >= CHURN_EXPLAINED_MIN,
                      f"trees + mutation self time {explained:.3f}s = "
                      f"{ratio:.0%} of the {extra:.3f}s extra traced wall "
                      f"over serve_sparse (expected >= "
                      f"{CHURN_EXPLAINED_MIN:.0%})"))
    return [f"expectation {name}: {'holds' if ok else 'DOES NOT HOLD'}: "
            f"{text}" for ok, text in lines]


def traced(args, workload, pinned) -> dict:
    """One untraced reference round, then traced rounds, all on the
    seed's inputs."""
    import layers
    import workloads
    from spans import Recorder, chrome_trace

    def traced_rounds(benches, seconds):
        """Traced rounds of ``benches`` in turn, so that they meet the
        same host conditions; one (recorder, rounds) pair per bench."""
        runs = [(Recorder(), []) for _ in benches]
        while sum(r[1] for r in runs[0][1]) < seconds or not runs[0][1]:
            for bench, (recorder, rounds) in zip(benches, runs):
                recorder.install()
                try:
                    recorder.run_id = f"{bench.name}/seed{args.seed}/" \
                                      f"round{len(rounds)}"
                    rounds.append(one_round(bench, seed, recorder))
                finally:
                    recorder.uninstall()
        return runs

    def layer_table(recorder, rounds, untraced_wall):
        return layers.compute(recorder, [r[3] for r in rounds],
                              [r[2] for r in rounds],
                              [r[1] for r in rounds], untraced_wall)

    seed = input_seeds(args.seed)[0]
    benches = [workload]
    if args.workload == "serve_churn":
        # The same reads without writes, to show which layers the write
        # stream's extra time lands in.
        benches.append(workloads.make("serve_sparse", args.size))
    references = [one_round(bench, seed) for bench in benches]
    runs = traced_rounds(benches, args.seconds)
    reference = references[0]
    recorder, rounds = runs[0]
    everything = [reference] + rounds
    layer = layer_table(recorder, rounds, reference[1])
    sparse_layer = None
    if len(benches) > 1:
        sparse_layer = layer_table(*runs[1], references[1][1])
        print("extra self time per round over serve_sparse, by layer "
              "(traced):")
        delta = {name: seconds - sparse_layer["self_s"][name]
                 for name, seconds in layer["self_s"].items()}
        for name, seconds in sorted(delta.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<14} {seconds:+9.4f}s")
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    meta = {"workload": args.workload, "seed": args.seed,
            "size": args.size, "pinned": pinned}
    chrome_trace(recorder.spans, stem + ".trace.json", meta)
    wall = layer["wall_s"]
    print(f"per-layer self time of the timed phase, per round "
          f"(traced wall {wall:.3f}s):")
    for name, seconds in sorted(layer["self_s"].items(),
                                key=lambda kv: -kv[1]):
        print(f"  {name:<14} {seconds:9.4f}s {seconds / wall:7.1%}")
    print(f"  {'unattributed':<14} {layer['unattributed_s']:9.4f}s "
          f"{layer['unattributed_s'] / wall:7.1%}")
    print(f"tracing overhead: {layer['metrics']['trace.overhead_s']:.3f}s "
          f"(traced {wall:.3f}s - untraced {reference[1]:.3f}s)")
    checks = expectations(args.workload, layer, reference[1], sparse_layer)
    for line in checks:
        print(line)
    with open(stem + ".layers.json", "w") as fh:
        json.dump({**meta, "self_s": layer["self_s"],
                   "unattributed_s": layer["unattributed_s"],
                   "traced_wall_s": wall, "untraced_wall_s": reference[1],
                   "metrics": layer["metrics"], "expectations": checks},
                  fh, indent=1, sort_keys=True)
    print(f"trace written to {os.path.relpath(stem, ROOT)}.trace.json")
    metrics = {name: (layer["metrics"][name], unit)
               for name, unit in layers.UNITS.items()}
    # Every round ran the same inputs, so they must agree exactly.
    problems = [f"round {i} differs from the untraced round"
                for i, r in enumerate(rounds)
                if r[2].digest() != reference[2].digest()]
    return {"rounds": everything, "metrics": metrics, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "serve_sparse", "serve_churn"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny only exercises the machinery")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro sources under {src}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path[:0] = [src, HERE]
    os.makedirs(OUT_DIR, exist_ok=True)

    import workloads

    workload = workloads.make(args.workload, args.size)
    print(f"pinned: {json.dumps(pinned, sort_keys=True)}")
    if args.trace:
        done = traced(args, workload, pinned)
        rounds, metrics = done["rounds"], done["metrics"]
        problems = done["problems"]
    else:
        warmup, passes = untraced(workload, args.seed, args.seconds)
        metrics = end_to_end(passes)
        timed_rounds = [r for p in passes for r in p]
        rounds = [warmup] + timed_rounds
        first = [warmup] + passes[0][1:]
        problems = [f"pass {i} input {k} differs from pass 0"
                    for i, p in enumerate(passes)
                    for k, r in enumerate(p)
                    if r[2].digest() != first[k][2].digest()]
        print(f"host seconds as measured (medians over "
              f"{len(timed_rounds)} timed rounds in {len(passes)} passes): "
              f"setup {statistics.median(r[3][0] for r in timed_rounds):.4f}, "
              f"wall {statistics.median(r[3][1] for r in timed_rounds):.4f}")
    for r in rounds:
        problems += r[2].errors
    attempted = sum(r[2].attempted for r in rounds)
    failed = sum(r[2].failed for r in rounds)
    print(f"digest {args.workload} seed={args.seed}: {run_digest(rounds)}")
    print(f"rounds={len(rounds)} virtual latency samples="
          f"{sum(len(r[2].virtual_ms) for r in rounds)} "
          f"attempted={attempted} failed={failed}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
