"""Benchmark for sqfactor: one command, three workloads, every output checked.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload hard-walk --seed 1 --seconds 30 --trace 0

Every run executes the same four phases (workload.py): RSA-100 walks,
tiny in-process splits, 64-bit gap ladders and fresh CLI processes.  A
workload decides how the measured seconds are shared: its own phase
gets most of them, the other two in-process phases a short probe, and
the CLI a fixed number of processes.  That way every workload reports
every end-to-end metric, while each metric gets most of its samples
from the workload that owns it (README.md lists the owners).

``--trace 0`` times the phases with nothing attached and prints the
end-to-end metrics, each scaled to a reference host speed by the
calibration loop that brackets every sample (workload.calibrate).  ``--trace 1`` runs each phase once untraced and
once with spans at every layer boundary (tracing.py), prints the
per-layer metrics, and checks that the exact counts (candidates,
is_probable_prime calls, ceil_sqrt calls per split) repeat within the
run and across runs of the same seed.

The last line of stdout is the JSON result; the line before it carries
the run's context (interpreter, platform, CPUs, package version, git
revision, seed, sample counts).  Both also go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("hard-walk", "tiny-splits", "gap-ladder")
OWN_PHASE = {"hard-walk": "walks", "tiny-splits": "splits", "gap-ladder": "ladder"}
PHASES = ("walks", "splits", "ladder")
OWN_SHARE = 0.7  # of the in-process seconds; the other two phases split the rest

ROUNDS = 10  # phases interleave in rounds, so a slow spell hits all of them
CLI_RUNS = 60  # p75 is the highest percentile with ten samples beyond it
SETUP_REPEATS = 5  # one in this process, the others in fresh processes
CLI_LAYER_RUNS = 2  # per round, for each of the bare and the import-only process


def setup(seed: int):
    """Import the program, make the seeded inputs and run the checked
    warm-up pass that fills the program's caches; all of it is set-up.
    Returns the set-up time scaled like every other sample (workload.py)."""
    c0 = wl.calibrate()
    t0 = time.perf_counter()
    tally = wl.Tally()
    sq = wl.import_program(ROOT)
    inputs = wl.make_inputs(seed)
    phases = {
        "walks": wl.Walks(sq, inputs),
        "splits": wl.Splits(sq, inputs),
        "ladder": wl.Ladder(sq, inputs),
    }
    for phase in phases.values():
        phase.warm(tally)
    cli = wl.Cli(sq, inputs, OUT)
    cli.warm(sq.engine, tally)
    bench = SimpleNamespace(sq=sq, phases=phases, cli=cli)
    dt = time.perf_counter() - t0
    return bench, tally, dt / wl.slowdown(c0, wl.calibrate())


def setup_elsewhere(args, tally):
    """Set-up time of a fresh process on the same seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        child = json.loads(proc.stdout.decode().splitlines()[-1])
    except subprocess.TimeoutExpired:
        tally.fail("set-up process timed out")
        return None
    except (ValueError, IndexError):
        tally.fail(f"set-up process exited {proc.returncode}: {proc.stderr[-300:]!r}")
        return None
    tally.merge(child["attempted"], child["failed"], child["notes"])
    return child["setup_s"]


def shares(workload: str, seconds: float):
    own = OWN_PHASE[workload]
    rest = (1 - OWN_SHARE) / (len(PHASES) - 1)
    return {p: seconds * (OWN_SHARE if p == own else rest) for p in PHASES}


def timed_run(b, args, tally, setups):
    per_round = args.seconds / ROUNDS
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        b.cli.run(CLI_RUNS // ROUNDS, tally)
        left = max(per_round - (time.perf_counter() - t0), 0.1 * per_round)
        for name, secs in shares(args.workload, left).items():
            b.phases[name].run(secs, tally)
    walks, splits, ladder = (b.phases[p] for p in PHASES)
    studies = ladder.study_s
    # whole passes, so every sample covers each study seed once; a run too
    # short for one pass falls back to the studies it made
    passes = [studies[i:i + wl.LADDER_STUDIES]
              for i in range(0, len(studies) - wl.LADDER_STUDIES + 1, wl.LADDER_STUDIES)]
    passes = passes or [studies]
    median = statistics.median
    metrics = {
        "setup_s": (median(setups), "s"),
        "ywalk_mcand_per_s": (median(walks.ywalk), "Mcand/s"),
        "ywalk_resumed_mcand_per_s": (median(walks.resumed), "Mcand/s"),
        "xwalk_mcand_per_s": (median(walks.xwalk), "Mcand/s"),
        "ysplit_p50_us": (median(splits.pct["y50"]), "us"),
        "ysplit_p99_us": (median(splits.pct["y99"]), "us"),
        "xsplit_p50_us": (median(splits.pct["x50"]), "us"),
        "xsplit_p99_us": (median(splits.pct["x99"]), "us"),
        "cli_p50_ms": (wl.percentile(b.cli.lat, 50) * 1e3, "ms"),
        "cli_p75_ms": (wl.percentile(b.cli.lat, 75) * 1e3, "ms"),
        "ladder_rungs_per_s": (median(len(wl.LADDER_GAPS) * len(p) / sum(p) for p in passes), "rungs/s"),
    }
    slow = [x for phase in (walks, splits, ladder, b.cli) for x in phase.slow]
    samples = {
        "setup_s": len(setups),
        "ywalk_calls": len(walks.ywalk),
        "ywalk_chunks": len(walks.resumed),
        "xwalk_calls": len(walks.xwalk),
        "split_windows": len(splits.pct["y50"]),
        "cli_processes": len(b.cli.lat),
        "ladder_passes": len(passes),
        "calibrations": 2 * len(slow),
        # 1.0 = the reference speed; the spread shows how much the host moved
        "host_slowdown_p10_p50_p90": [wl.percentile(slow, q) for q in (10, 50, 90)],
    }
    return metrics, samples


# --- traced run -----------------------------------------------------------------

def count_pass(b, tally):
    """One traced pass over the fixed split and ladder inputs; returns the
    counts that must be a pure function of the seed."""
    tracer = tracing.Tracer(b.sq)
    tracer.install()
    try:
        for phase in ("splits", "ladder"):
            tracer.phase = phase
            b.phases[phase].one_pass(tally)
            tracer.fold()
    finally:
        tracer.uninstall()
    t = tracer.total
    return {
        "fermat_candidates": t("splits", "engine.fermat_factor").count
        + t("ladder", "engine.fermat_factor").count,
        "split_calls": t("splits", "engine.fermat_factor").calls
        + t("splits", "engine.xscan_factor").calls,
        "split_ceil_sqrt_calls": t("splits", "numeric.ceil_sqrt").calls,
        "prime_tests": t("ladder", "numeric.is_probable_prime").calls,
        "primes_found": t("ladder", "numeric.is_probable_prime").count,
        "generate_calls": t("ladder", "semiprimes.generate_in_window").calls,
    }


def check_counts_across_runs(args, counts, tally):
    """Exact counts of this seed must match any earlier run of the same
    benchmark code in this checkout."""
    digest = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    record = {"benchmark": digest.hexdigest(), "counts": counts}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["benchmark"] == record["benchmark"]:
            tally.check(earlier["counts"] == counts,
                        f"exact counts differ from an earlier run: {earlier['counts']} vs {counts}")
            return
    path.write_text(json.dumps(record, sort_keys=True))


def cli_layer_probe(b, tally, samples):
    """Bare interpreter, import-only process, and in-process build_parser
    and main() calls with stdout captured."""
    py = sys.executable
    for key, argv in (("startup", [py, "-c", "pass"]),
                      ("import", [py, "-c", "import sqfactor.cli"])):
        for _ in range(CLI_LAYER_RUNS):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=b.cli.env, capture_output=True, timeout=60)
            except subprocess.TimeoutExpired:
                tally.check(False, f"{argv[-1]!r} timed out")
                continue
            samples[key].append(time.perf_counter() - t0)
            tally.check(proc.returncode == 0, f"{argv[-1]!r} exited {proc.returncode}")
    cli = importlib.import_module("sqfactor.cli")
    for _ in range(10):
        t0 = time.perf_counter()
        cli.build_parser()
        samples["build_parser"].append(time.perf_counter() - t0)
    for args, want, code in b.cli.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(list(args))
            samples["main"].append(time.perf_counter() - t0)
        tally.check(b.cli.matches(want, code, out.getvalue(), rc),
                    f"in-process sqfactor {' '.join(args)[:80]}: exit {rc}")


def traced_run(b, args, tally):
    counts = count_pass(b, tally)
    tracer = tracing.Tracer(b.sq)
    work = {(p, traced): [0.0, 0.0] for p in PHASES for traced in (False, True)}
    cli = {"startup": [], "import": [], "build_parser": [], "main": []}
    per_round = args.seconds / ROUNDS
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        cli_layer_probe(b, tally, cli)
        left = max(per_round - (time.perf_counter() - t0), 0.1 * per_round)
        for name, secs in shares(args.workload, left).items():
            for traced in (False, True):
                if traced:
                    tracer.phase = name
                    tracer.install()
                try:
                    w, busy = b.phases[name].run(secs / 2, tally)
                finally:
                    if traced:
                        tracer.uninstall()
                        tracer.fold()
                work[name, traced][0] += w
                work[name, traced][1] += busy
    again = count_pass(b, tally)
    tally.check(again == counts, f"exact counts changed within the run: {counts} vs {again}")
    check_counts_across_runs(args, counts, tally)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    t = tracer.total
    ladder_fermat = t("ladder", "engine.fermat_factor")
    resume_fermat = t("walks", "engine.resume_fermat")
    resume_xscan = t("walks", "engine.resume_xscan")
    checkpoint_line = t("walks", "engine.checkpoint_line")
    parse_checkpoint = t("walks", "engine.parse_checkpoint")
    split_fermat = t("splits", "engine.fermat_factor")
    split_xscan = t("splits", "engine.xscan_factor")
    split_ceil_sqrt = t("splits", "numeric.ceil_sqrt")
    prime_test = t("ladder", "numeric.is_probable_prime")
    generate = t("ladder", "semiprimes.generate_in_window")
    measure = t("ladder", "bench.measure")
    to_json = t("ladder", "bench.record_to_json")
    summary = t("ladder", "bench.scaling_summary")
    study = t("ladder", "bench.run_study")
    ladder_passes = study.calls / wl.LADDER_STUDIES
    ladder_ns = study.ns + summary.ns
    own = OWN_PHASE[args.workload]
    untraced, traced = work[own, False], work[own, True]
    startup = statistics.median(cli["startup"])
    metrics = {
        "engine.fermat_factor.ns_per_candidate": (ladder_fermat.ns / ladder_fermat.count, "ns/cand"),
        "engine.resume_fermat.calls": (resume_fermat.calls, "count"),
        "engine.resume_fermat.ns_per_candidate": (resume_fermat.ns / resume_fermat.count, "ns/cand"),
        "engine.checkpoint_line.us_per_call": (checkpoint_line.ns / checkpoint_line.calls / 1e3, "us"),
        "engine.parse_checkpoint.us_per_call": (parse_checkpoint.ns / parse_checkpoint.calls / 1e3, "us"),
        "engine.resume_xscan.ns_per_candidate": (resume_xscan.ns / resume_xscan.count, "ns/cand"),
        "engine.fermat_factor.self_us_per_call": (split_fermat.self_ns / split_fermat.calls / 1e3, "us"),
        "engine.xscan_factor.self_us_per_call": (split_xscan.self_ns / split_xscan.calls / 1e3, "us"),
        "engine.fermat_factor.candidates": (counts["fermat_candidates"], "count"),
        "numeric.ceil_sqrt.calls_per_split": (counts["split_ceil_sqrt_calls"] / counts["split_calls"], "calls/split"),
        "numeric.ceil_sqrt.ns_per_call": (split_ceil_sqrt.ns / split_ceil_sqrt.calls, "ns"),
        "numeric.is_probable_prime.calls": (counts["prime_tests"], "count"),
        "numeric.is_probable_prime.busy_s": (prime_test.ns / 1e9 / ladder_passes, "s"),
        "numeric.is_probable_prime.prime_ratio": (counts["primes_found"] / counts["prime_tests"], "ratio"),
        "semiprimes.generate_in_window.calls": (counts["generate_calls"], "count"),
        "semiprimes.generate_in_window.self_s": (generate.self_ns / 1e9 / ladder_passes, "s"),
        "bench.measure.self_us_per_call": (measure.self_ns / measure.calls / 1e3, "us"),
        "bench.record_to_json.us_per_record": (to_json.ns / to_json.calls / 1e3, "us"),
        "bench.scaling_summary.ms": (summary.ns / summary.calls / 1e6, "ms"),
        "cli.startup_ms": (startup * 1e3, "ms"),
        "cli.import_ms": ((statistics.median(cli["import"]) - startup) * 1e3, "ms"),
        "cli.build_parser_us": (statistics.median(cli["build_parser"]) * 1e6, "us"),
        "cli.main_us": (statistics.median(cli["main"]) * 1e6, "us"),
        "ladder.share.semiprimes": (generate.ns / ladder_ns, "ratio"),
        "ladder.share.engine": (ladder_fermat.ns / ladder_ns, "ratio"),
        "ladder.share.bench": (1 - (generate.ns + ladder_fermat.ns) / ladder_ns, "ratio"),
        "trace.overhead_pct": ((untraced[0] / untraced[1] * traced[1] / traced[0] - 1) * 100, "%"),
    }
    samples = {"spans": sum(v[0] for v in tracer.totals.values()), "count_passes": 2,
               **{f"cli.{k}": len(v) for k, v in cli.items()}}
    return metrics, samples


# --- context and output -----------------------------------------------------------

def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() or "unknown"


def context(args, b, tally, samples):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": cpus,
        "sqfactor": b.sq.version if b else None,
        "git_revision": git_revision(),
        "samples": samples,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqfactor" / "__init__.py").is_file():
        print(f"error: no sqfactor package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    b, tally, setup_s = setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                          "failed": tally.failed, "notes": tally.notes}))
        return 0
    gc.collect()
    gc.freeze()  # the inputs and expected outcomes stay out of every collection

    if args.trace:
        metrics, samples = traced_run(b, args, tally)
    else:
        setups = [setup_s]
        for _ in range(SETUP_REPEATS - 1):
            s = setup_elsewhere(args, tally)
            if s is not None:
                setups.append(s)
        metrics, samples = timed_run(b, args, tally, setups)

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    ctx = context(args, b, tally, samples)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": ctx, "result": result}, indent=1, sort_keys=True)
    )
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
