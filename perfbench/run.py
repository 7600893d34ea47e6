#!/usr/bin/env python3
"""The lambdapm benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload term-queries --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  It imports lambdapm from `src/` of that
checkout and from nowhere else, and exits non-zero without a result when it
cannot.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; with `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones.  The line before it is
a JSON object of details: fail_ratio, the tail percentile and its op count,
the failures, and the run metadata.

A run builds the seeded op list once (set-up), then repeats it in
measurement passes until `--seconds` have gone by.  Each pass runs in a
process forked from the set-up state, so every pass starts with the
library's module caches as cold as a fresh CLI call has them, and pays for
filling them.  Set-up time is measured in separate processes, from spawn to
a built op list, so interpreter start and `import lambdapm` count.

Every run writes `.perfbench-out/<workload>-seed<seed>.json` with the
per-op output digests; `--reference` compares a run against such a file, so
two commits can be compared on any seed.  With no `--reference`, the stored
reference of the default seed (`perfbench/reference/<workload>.json`) is
used when the seed matches it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Machine speed.  On a shared 2-vCPU Xeon VM (2.1 GHz) the speed drifted by up
# to 1.7x over seconds to tens of seconds, which no statistic over one run
# removes.  So a fixed stdlib-only calibration chunk runs between ops, after every
# CAL_EVERY seconds of op time, and each op's time is scaled by CAL_REF over
# the median of the CAL_WINDOW chunks around it: times are reported in
# seconds at the speed where the chunk takes CAL_REF seconds.
CAL_EVERY = 0.02
CAL_WINDOW = 8
CAL_REF = 1e-3
NOTE = ("shared machine, not isolated: other tenants' load is not controlled; "
        "no CPU pinning and no kernel settings are used")


def import_library():
    """Import lambdapm from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lambdapm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lambdapm from {src}: {exc}")
    if Path(lambdapm.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: lambdapm was imported from "
                         f"{lambdapm.__file__}, not from {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("term-queries", "expansion", "domain-tower"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path,
                    help="digest file of an earlier run to compare against")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Calibration

def calibration_chunk():
    """Fixed Python work of the library's kind: tuples, hashing, dicts and
    Fraction arithmetic.  It never touches lambdapm."""
    d = {}
    acc = Fraction(0)
    for i in range(300):
        k = (i % 97, ("x", i % 13), (i, (i, i % 5)))
        d[k] = d.get(k, 0) + 1
        acc += Fraction(1, 2 ** (i % 20 + 1))
    return acc


def time_chunk() -> float:
    t0 = time.perf_counter()
    calibration_chunk()
    return time.perf_counter() - t0


def scale_times(times, at, chunks) -> list:
    """Scale each op time to the reference speed; `at[i]` is the index of the
    last chunk timed before op i."""
    half = CAL_WINDOW // 2
    local = [statistics.median(chunks[max(0, k - half + 1):k + half + 1])
             for k in range(len(chunks))]
    return [t * CAL_REF / local[k] for t, k in zip(times, at)]


# ---------------------------------------------------------------------------
# Set-up time

def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its op list being built,
    scaled to the reference speed by chunks the probe times right after.

    The probe reports its own perf_counter reading; on Linux that clock is
    CLOCK_MONOTONIC, which all processes share.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=False)
    if res.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{res.stderr}")
    ready, chunk = map(float, res.stdout.split()[-2:])
    return (ready - t0) * CAL_REF / chunk


# ---------------------------------------------------------------------------
# Measurement passes

def run_pass(ops, traced: bool, spans_path) -> dict:
    """Run the op list once; time each op's library call and nothing else."""
    import spans
    import workloads

    tracer = None
    if traced:
        tracer = spans.Recorder()
        tracer.install()
    env = workloads.Env(tracer=tracer)
    perf_counter = time.perf_counter
    times, at, digests, failures = [], [], [], []
    chunks = [time_chunk()]
    since = 0.0
    for i, op in enumerate(ops):
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.call(env)
            else:
                tracer.active = True
                with tracer.span("op", f"op.{op.kind}"):
                    out = op.call(env)
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(perf_counter() - t0)
        at.append(len(chunks) - 1)
        since += times[-1]
        if since >= CAL_EVERY:
            chunks.append(time_chunk())
            since = 0.0
        if error is None:
            if op.keep is not None:
                env.state[op.keep] = out
            try:
                digests.append(workloads.digest(out))
                if op.check is not None and not op.check(out, env):
                    error = "independent check failed"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            if len(digests) <= i:
                digests.append(None)
            failures.append({"op": i, "kind": op.kind, "why": error})
    chunks.append(time_chunk())
    scaled = scale_times(times, at, chunks)
    scale = sum(scaled) / sum(times)
    result = {"times": scaled, "raw_wall_s": sum(times),
              "scale": scale, "digests": digests, "failures": failures,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        for layer in spans.LAYERS:
            result["layers"][f"{layer}.self_s"] *= scale
        if spans_path is not None:
            tracer.dump(spans_path)
    return result


def run_forked(ops, traced: bool, spans_path=None) -> dict:
    """One pass in a child forked from the set-up state; the parent waits."""
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            with os.fdopen(w, "w") as f:
                json.dump(run_pass(ops, traced, spans_path), f)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SystemExit("perfbench: a measurement pass crashed")
    return json.loads(data)


def measure(ops, args):
    """Passes until --seconds have gone by.  A traced run alternates plain and
    traced passes, so that the tracing overhead compares like with like."""
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(traced) < len(plain):
            traced.append(run_forked(ops, True, None if traced else spans_path))
        else:
            plain.append(run_forked(ops, False))
        if time.perf_counter() >= deadline and (traced or not args.trace):
            return plain, traced


# ---------------------------------------------------------------------------
# Metrics

def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND ops beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def op_medians(passes) -> list:
    """Each op's median time over the passes.  A slow spell of the machine
    hits a given op in a minority of passes, so these medians hold steady
    where whole-pass times do not."""
    return [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]


def end_to_end(plain, setup, pct) -> dict:
    ops = op_medians(plain)
    ranked = sorted(ops)
    return {"setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(ops), "s"),
            "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
            "op_tail_ms": (nearest_rank(ranked, pct) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in plain) / 1024, "MB")}


LAYER_UNITS = {"calls": "count", "self_s": "s", "head_steps": "count",
               "fuel_out_ratio": "ratio", "contexts": "count",
               "exact_ratio": "ratio", "normal_forms": "count",
               "fragment_elems": "count", "tables": "count",
               "poset_elems": "count", "dist_evals": "count",
               "memo_hit_ratio": "ratio"}


def per_layer(plain, traced) -> dict:
    med = statistics.median
    out = {}
    for name in traced[0]["layers"]:
        value = med(p["layers"][name] for p in traced)
        out[name] = (value, LAYER_UNITS[name.split(".", 1)[1]])
    overhead = sum(op_medians(traced)) / sum(op_medians(plain)) - 1
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# ---------------------------------------------------------------------------
# Correctness across passes and against the reference

def load_reference(args, ops):
    """Per-op digests to compare against, or None when there are none for
    this seed.  A reference for another op list is an error."""
    path = args.reference or HERE / "reference" / f"{args.workload}.json"
    if not path.exists():
        if args.reference:
            raise SystemExit(f"perfbench: no reference file {path}")
        return None
    ref = json.loads(path.read_text())
    if ref["workload"] != args.workload or ref["seed"] != args.seed:
        if args.reference:
            raise SystemExit(f"perfbench: {path} is for {ref['workload']} "
                             f"seed {ref['seed']}")
        return None
    if [k for k, _ in ref["ops"]] != [op.kind for op in ops]:
        raise SystemExit(f"perfbench: {path} was recorded for another op list")
    return [d for _, d in ref["ops"]]


def count_failures(passes, reference, ops) -> tuple:
    """Failed ops over all passes: raised, failed a check, disagreed with
    the reference, or gave another output than the first pass did."""
    first = passes[0]["digests"]
    failed, examples = 0, []
    for p in passes:
        bad = {f["op"]: f["why"] for f in p["failures"]}
        for i, d in enumerate(p["digests"]):
            if i not in bad and d != first[i]:
                bad[i] = "output differs between passes"
            if i not in bad and reference is not None and d != reference[i]:
                bad[i] = f"digest {d} != reference {reference[i]}"
        failed += len(bad)
        for i, why in sorted(bad.items())[:5 - len(examples)]:
            examples.append({"op": i, "kind": ops[i].kind, "why": why})
    return failed, examples


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        ready = time.perf_counter()
        chunk = statistics.median(time_chunk() for _ in range(31))
        print(repr(ready), repr(chunk), flush=True)
        os._exit(0)  # skip interpreter teardown; the probe is done
    reference = load_reference(args, ops)
    OUT_DIR.mkdir(exist_ok=True)
    # The op list is the benchmark's data, not the library's: keep the
    # collector from traversing it in every pass.
    gc.collect()
    gc.freeze()

    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    plain, traced = measure(ops, args)
    passes = plain + traced
    failed, examples = count_failures(passes, reference, ops)
    attempted = len(ops) * len(passes)
    pct = tail_percentile(len(ops))
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(plain, setup, pct))

    meta = {"git_sha": git_sha(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "note": NOTE}
    details = {"fail_ratio": failed / attempted,
               "op_tail": {"percentile": pct, "ops_per_pass": len(ops),
                           "ops_beyond": len(ops) - math.ceil(pct / 100 * len(ops))},
               "passes": len(plain), "traced_passes": len(traced),
               "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
               "speed_scale": statistics.median(p["scale"] for p in plain),
               "reference_checked": reference is not None,
               "failures": examples, "meta": meta}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
    out_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "meta": meta,
        "details": details,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "ops": [[op.kind, d] for op, d in zip(ops, passes[0]["digests"])],
    }, indent=1) + "\n")
    details["out"] = str(out_file.relative_to(ROOT))

    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
