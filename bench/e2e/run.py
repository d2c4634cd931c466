#!/usr/bin/env python3
"""End-to-end benchmark runner (standard library only).

    python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace]
    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/e2e/run.py --compare A.json[,A2.json...] B.json[,B2.json...]

Builds libanda and anda_bench (anda_bench.cpp) in Release into build-e2e/
at the repository root, then runs each workload of BENCHMARK.json in its
own process, so peak RSS is per workload. anda_bench checks its outputs
after timing; a failed check exits nonzero.

Without --workload every workload runs, every metric is printed with its
unit, and the results go to bench/e2e/results/BENCH_e2e.json (or --out)
with host, compiler, build type, git sha, seed and thread count. With
--workload one workload runs. In both modes the last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
end-to-end ones by default and per-layer ones with --trace.

--trace keeps the untraced timing for the end-to-end metrics, then makes a
separate traced pass; its Chrome trace-event JSON lands in build-e2e/.
Per-layer metrics a workload does not exercise read 0.

--compare applies each end-to-end metric's direction and bound from
BENCHMARK.json to every (metric, workload) of two sides, A the
baseline, and prints better, unchanged, worse or unresolved (the spread
of either side is wider than the bound). A side is one results file or
a comma-separated list of them; with a list its value is the median over
the files and its spread their quartiles, which include the noise
between runs that one file cannot show. A metric both sides mark exact
(fixed by workload and seed, such as sim_tok_s) is compared exactly when
the two sides ran the same seeds: any change is better or worse. It
exits nonzero on worse or unresolved.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BENCH_EXE = BUILD / "anda_bench"
RESULTS = HERE / "results" / "BENCH_e2e.json"
# A hung workload fails the run instead of stalling it; the longest
# workload run, a traced rag_longctx, takes about 50 s.
BENCH_TIMEOUT_S = 170


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def threads() -> int:
    return min(4, os.cpu_count() or 1)


def build() -> None:
    """Configures once, then builds incrementally; output goes to stderr."""
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(threads())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def run_bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [str(BENCH_EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", str(BUILD / f"trace_{workload}_seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: anda_bench timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: anda_bench exited {proc.returncode} "
                         "without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def select(result: dict, spec: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["layers"] if trace else result["metrics"]
    names = {m["name"] for m in listed}
    extra = sorted(set(got) - names)
    if extra:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {extra}")
    out = {}
    for m in listed:
        if m["name"] in got:
            out[m["name"]] = got[m["name"]]
        elif trace:
            out[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            raise SystemExit(f"end-to-end metric {m['name']} not reported")
        if out[m["name"]]["unit"] != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {out[m['name']]['unit']} "
                             f"!= {m['unit']}")
    return out


def show(workload: str, result: dict, *metric_sets: dict) -> None:
    status = "ok" if result["correct"] else "FAILED " + "; ".join(
        result["failures"])
    print(f"{workload}: {len(result['iteration_s'])} iterations, "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"checks {status}")
    for metrics in metric_sets:
        for name, m in metrics.items():
            spread = ""
            if m.get("n", 1) > 1:
                spread = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})"
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{spread}")


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_type() -> str:
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def side(docs: list[dict], workload: str, metric: str) -> dict:
    """One side of a comparison: a single run's median and quartiles over
    its iterations, or over several runs the median and quartiles of
    their values, which include the noise between runs."""
    ms = [d["workloads"][workload]["metrics"][metric] for d in docs]
    exact = all(m.get("exact", False) for m in ms)
    if len(ms) == 1:
        return dict(ms[0], exact=exact)
    q1, med, q3 = statistics.quantiles([m["value"] for m in ms], n=4)
    return {"value": med, "q1": q1, "q3": q3, "exact": exact}


def verdict(metric: dict, a: dict, b: dict,
            same_seeds: bool) -> tuple[str, float, float, float]:
    """Signed change of B against A (positive = better), the wider
    spread, the bound applied and the verdict."""
    change = (b["value"] - a["value"]) / a["value"]
    if metric["better"] == "lower":
        change = -change
    if same_seeds and a["exact"] and b["exact"]:
        spread, bound = 0.0, 0.0
    else:
        spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
        bound = metric["bound"]
    if spread > bound:
        return "unresolved", change, spread, bound
    if change < -bound:
        return "worse", change, spread, bound
    if change > bound:
        return "better", change, spread, bound
    return "unchanged", change, spread, bound


def compare(paths_a: str, paths_b: str, spec: dict) -> int:
    """Each argument is one results file or a comma-separated list."""
    docs_a = [json.loads(Path(p).read_text()) for p in paths_a.split(",")]
    docs_b = [json.loads(Path(p).read_text()) for p in paths_b.split(",")]
    same_seeds = (sorted(d["seed"] for d in docs_a) ==
                  sorted(d["seed"] for d in docs_b))
    bad = 0
    print(f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if any(name not in d["workloads"] for d in docs_a + docs_b):
            print(f"{name:<16} missing from a results file")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            ma = side(docs_a, name, m["name"])
            mb = side(docs_b, name, m["name"])
            v, change, spread, bound = verdict(m, ma, mb, same_seeds)
            bad += v in ("worse", "unresolved")
            print(f"{name:<16} {m['name']:<14} {ma['value']:>12.6g} "
                  f"{mb['value']:>12.6g} {100 * change:>+7.2f}% "
                  f"{100 * spread:>6.2f}% {100 * bound:>5.1f}%  {v}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 default; 1 is held out)")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"], help="add the traced pass")
    parser.add_argument("--out", default=str(RESULTS),
                        help="results file of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare results files; each side is one "
                             "file or a comma-separated list")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds or spec["run_seconds"]
    trace = args.trace == "1"
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload}; one of {names}")

    build()
    results = {}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [args.workload] if args.workload else names:
        result = run_bench(name, args.seed, seconds, trace)
        e2e = select(result, spec, False)
        layers = select(result, spec, True) if trace else {}
        show(name, result, e2e, layers)
        metrics = layers if trace else e2e
        results[name] = result
        summary["correct"] &= result["correct"] and result["exit_code"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in metrics.items():
            label = key if args.workload else f"{name}/{key}"
            summary["metrics"][label] = {"value": m["value"],
                                         "unit": m["unit"]}

    if not args.workload:
        first = next(iter(results.values()))
        doc = {
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "compiler": first["compiler"],
            "build_type": build_type(),
            "git_sha": git_sha(),
            "date": datetime.datetime.now(datetime.timezone.utc)
                    .isoformat(timespec="seconds"),
            "seed": args.seed,
            "seconds": seconds,
            "threads": first["threads"],
            "scaling_threads": first["scaling_threads"],
            "trace": trace,
            "workloads": results,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        log(f"wrote {out}")

    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
