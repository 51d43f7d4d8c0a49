"""Benchmark runner: one workload, one seed, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from ``src``.
Workloads are closed loops with one client in one process: ``certify`` and
``scan`` call the library directly, ``cli`` runs one ``python -m
morsetoeplitz.cli`` process at a time.  Every answer is judged against an
independent oracle outside the timed span.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans the runner records, taken on
half of the rounds, while the other half runs untraced to give the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
JSON result.  A report with the seed, input class shares, failures and
version stamps is written to ``bench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("substitution", "patterns", "sliding", "graphs", "conjugacy", "cli")
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("calls", "count"), ("busy_s", "s"), ("errors", "count"))},
    "substitution.language.busy_s": "s",
    "substitution.language.blocks": "count",
    "substitution.window.busy_s": "s",
    "substitution.window.letters": "count",
    "patterns.letters": "count",
    "patterns.hit_ratio": "ratio",
    "patterns.free.busy_s": "s",
    "patterns.hit.busy_s": "s",
    "sliding.code.letters": "count",
    "sliding.preimage.busy_s": "s",
    "sliding.preimage.blocks": "count",
    "conjugacy.verify.busy_s": "s",
    "conjugacy.search.busy_s": "s",
    "conjugacy.recode.busy_s": "s",
    "conjugacy.accept_ratio": "ratio",
    "conjugacy.search.found_ratio": "ratio",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "words.busy_s": "s",
    "request.self_s": "s",
    "request.fail_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
SETUP_PROBES = 7
CLI_PROBES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import morsetoeplitz.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "scan", "cli"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "smoke"),
                   help="smoke: tiny inputs for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true",
                   help="build the inputs, print 'ready' and exit (times set-up)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def probe_argv(args) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--scale", args.scale, "--setup-probe"]


def time_setup(args) -> float:
    """Wall time from spawning a fresh interpreter to its 'ready' line."""
    start = perf_counter()
    proc = subprocess.Popen(probe_argv(args), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready":
        raise RuntimeError("set-up probe did not report ready")
    return elapsed


def cli_probes() -> tuple[float, float]:
    """Median bare interpreter start and median ``import morsetoeplitz.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, imports = [], []
    for _ in range(CLI_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout))
    return statistics.median(interp), statistics.median(imports)


def execute(req, tracer, rid: int, traced: bool) -> dict:
    tracer.begin(rid, "request." + req.name)
    start = perf_counter()
    try:
        result, error = req.run(tracer.call), None
    except Exception as exc:  # a raising request is a measured outcome, judged below
        result, error = None, exc
    latency = perf_counter() - start
    tracer.end(None if error is None else type(error).__name__)
    try:
        verdict = req.judge(result, error)
    except Exception as exc:
        verdict = f"answer could not be judged: {type(exc).__name__}: {exc}"
    if error is None and req.measure is not None:
        tracer.count(req.measure(result))
    return {"name": req.name, "classes": req.classes, "latency": latency,
            "traced": traced, "verdict": verdict}


def run_plan(plan, tracer, budget_s: float) -> tuple[list[dict], int]:
    """Run whole rounds until done or out of budget; a traced run stops only
    before an untraced round, so both halves keep the same composition."""
    records: list[dict] = []
    start = perf_counter()
    done = 0
    for reqs, traced in zip(plan.rounds, plan.traced):
        if not traced and perf_counter() - start > budget_s:
            break
        tracer.enabled = traced
        for req in reqs:
            records.append(execute(req, tracer, len(records), traced))
        done += 1
    tracer.enabled = False
    return records, done


def quantile(sorted_values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the i-th weighted by the mass
    a Beta(p(n+1), (1-p)(n+1)) law puts on ((i-1)/n, i/n], integrated here
    by the midpoint rule.  Latencies of a request mix fall in clusters, and
    a single order statistic jumps between them when the rank sits near a
    gap; the weighted mean moves smoothly instead.
    """
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    h = 1.0 / (n * steps)
    total = estimate = 0.0
    for i, x in enumerate(sorted_values):
        w = 0.0
        for j in range(steps):
            t = (i * steps + j + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w
        estimate += w * x
    return estimate / total


def supported_percentile(n: int) -> int | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ok = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return ok[-1] if ok else None


def end_to_end(workload: str, records: list[dict], setup: list[float]) -> dict:
    lat = sorted(r["latency"] for r in records)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms.p50": quantile(lat, 0.50) * 1e3,
        "op_ms.p90": quantile(lat, 0.90) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(records: list[dict], tracer, summary: dict) -> dict:
    def get(key, field):
        return summary.get(key, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    m = {}
    for layer in LAYERS:
        for f in ("calls", "busy_s", "errors"):
            m[f"{layer}.{f}"] = get(layer, f)
    for name in ("substitution.language", "substitution.window", "patterns.free",
                 "patterns.hit", "sliding.preimage", "conjugacy.verify",
                 "conjugacy.search", "conjugacy.recode"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    m["substitution.language.blocks"] = c["substitution.language.blocks"]
    m["substitution.window.letters"] = c["substitution.window.letters"]
    m["patterns.letters"] = c["patterns.letters"]
    m["patterns.hit_ratio"] = ratio(c["patterns.hits"], c["patterns.scans"])
    m["sliding.code.letters"] = c["sliding.code.letters"]
    m["sliding.preimage.blocks"] = c["sliding.preimage.blocks"]
    m["conjugacy.accept_ratio"] = ratio(c["conjugacy.accepted"], c["conjugacy.verifications"])
    m["conjugacy.search.found_ratio"] = ratio(c["conjugacy.found"], c["conjugacy.searches"])
    m["cli.interp_s"], m["cli.import_s"] = cli_probes()
    m["words.busy_s"] = get("words", "busy_s")
    m["request.self_s"] = get("request", "self_s")
    traced = [r for r in records if r["traced"]]
    m["request.fail_ratio"] = ratio(sum(r["verdict"] is not None for r in traced), len(traced))
    on = sum(r["latency"] for r in traced)
    off = sum(r["latency"] for r in records if not r["traced"])
    m["trace.overhead_ratio"] = ratio(on, off) - 1
    return {k: m[k] for k in PER_LAYER}


def class_shares(records: list[dict]) -> dict:
    counts: dict[str, Counter] = {}
    for r in records:
        for key, value in r["classes"].items():
            counts.setdefault(key, Counter())[value] += 1
    return {
        key: {v: {"count": n, "share": n / sum(cnt.values())} for v, n in sorted(cnt.items())}
        for key, cnt in sorted(counts.items())
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def stamps() -> dict:
    # imported here, not at the top: it takes about 30 ms, which every
    # set-up probe would otherwise pay inside setup_s
    from importlib import metadata

    out = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    for pkg in ("numpy", "click"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    out["git_commit"] = git_commit()
    digest = hashlib.sha256()
    for path in sorted((SRC / "morsetoeplitz").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    out["source_sha256"] = digest.hexdigest()
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morsetoeplitz" / "__init__.py").is_file():
        print(f"error: no morsetoeplitz sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer()
    tracer.enabled = bool(args.trace)  # set-up spans give words.busy_s
    plan = workloads.plan(args.workload, args.seed, args.seconds, args.trace,
                          args.scale, tracer, SRC)
    tracer.enabled = False
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else [time_setup(args) for _ in range(SETUP_PROBES)]
    records, rounds_run = run_plan(plan, tracer, min(3 * args.seconds, 120))
    summary = tracing.summarize(tracer.spans)
    if args.trace:
        metrics, units = per_layer(records, tracer, summary), PER_LAYER
    else:
        metrics, units = end_to_end(args.workload, records, setup), END_TO_END

    failures = [r for r in records if r["verdict"] and not r["verdict"].startswith(workloads.KNOWN)]
    known = Counter(r["verdict"][len(workloads.KNOWN):] for r in records
                    if r["verdict"] and r["verdict"].startswith(workloads.KNOWN))
    n = len(records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "rounds": {"planned": len(plan.rounds), "run": rounds_run},
        "samples": n,
        "supported_percentile": supported_percentile(n),
        "busy_s": sum(r["latency"] for r in records),
        "latencies_ms": sorted(r["latency"] * 1e3 for r in records),
        "setup_probes_s": setup,
        "fail_ratio": {"value": (len(failures) + sum(known.values())) / n, "base": n,
                       "unexpected": len(failures), "known_defects": dict(known)},
        "failures": [f"{r['name']}: {r['verdict']}" for r in failures[:20]],
        "classes": class_shares(records),
        "stamps": stamps(),
        "metrics": metrics,
    }
    if args.trace:
        report["layers"] = summary
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    fr = report["fail_ratio"]
    print(f"samples = {n}, highest percentile with ten samples beyond it: p{report['supported_percentile']}")
    print(f"fail_ratio = {fr['value']} of {n} requests "
          f"({fr['unexpected']} unexpected, known defects {fr['known_defects']})")
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
