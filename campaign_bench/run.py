#!/usr/bin/env python3
"""Campaign benchmark: serve-short, batch-long and fuzz-fresh.

Run from the root of a checkout:

    python3 campaign_bench/run.py --workload batch-long --seed 1 --seconds 25 --trace 0

The script builds the CLI and the campaign runner (campaign_bench/campaign.ml)
with dune, writes the workload's inputs from --seed, runs it, checks
the outputs and prints one table per metric family followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

Other modes:
    --self-test        run the benchmark's own unit tests
    --pool             median and quartiles of every end-to-end metric over
                       the saved runs of a workload, and p50/p90 over their
                       pooled latency samples with the sample count
    --record-digests   rewrite expected.json from a default-seed run

Everything the benchmark writes goes under .bench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected.json")
RUNNER = os.path.join(ROOT, "_build", "default", "campaign_bench", "campaign.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "ocapi_cli.exe")
CORPUS = os.path.join(ROOT, "corpus", "fuzz_corpus.jsonl")

DEFAULT_SEED = 1
GALLERY = ("hcor", "dect", "rs", "cpu")
ENGINES = ("interp", "compiled", "native", "rtl", "gate")
DEADLINE_S = 165.0

# Workload names, metric names and units come from BENCHMARK.json.
# Every time-based per-layer metric is measured on all three workloads;
# layers only one workload reaches (the differential checker, cold
# plugin compiles, worker process exit, the interpreted engine) are
# printed by the traced run as extras.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


# --- statistics ---------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated q-quantile (0..1) of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile with at least ten samples beyond
    it in a sample of n, or None when even the median has fewer."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children counted
    once).  Returns {span id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        ivs = sorted((max(c["start"], lo), min(c["end"], hi))
                     for c in children.get(s["id"], []))
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


# --- inputs -------------------------------------------------------------------

def _line(**kw):
    return json.dumps(kw, sort_keys=True)


def serve_manifest(seed):
    """Short jobs: every gallery design on all five engines for a few
    hundred cycles, one SEU job of tens of runs and one stuck-at job of
    tens of faults per design, and 20% exact duplicate lines.  The
    seed draws the job order, stimulus and fault seeds, small changes of
    size and which job of every block of four is duplicated; the amount
    of work and the spacing of the duplicates stay alike across seeds."""
    rng = random.Random("serve-short/%d" % seed)
    jobs = []
    for d in GALLERY:
        cycles, sim_seed = rng.randrange(290, 311), rng.randrange(1, 1000)
        jobs += [_line(kind="simulate", design=d, engine=e, cycles=cycles, seed=sim_seed)
                 for e in ENGINES]
    for d in GALLERY:
        jobs.append(_line(kind="seu", design=d, engine=rng.choice(("interp", "compiled", "rtl")),
                          runs=rng.randrange(28, 33), cycles=48, seed=rng.randrange(1, 1000)))
    for d in GALLERY:
        jobs.append(_line(kind="stuck-at", design=d, cycles=48, seed=rng.randrange(1, 1000),
                          max_faults=rng.randrange(28, 33)))
    rng.shuffle(jobs)
    lines = []
    for i in range(0, len(jobs), 4):
        block = jobs[i:i + 4]
        lines += block
        if len(block) == 4:
            lines.append(rng.choice(block))
    return lines


# batch-long submits its jobs in this fixed order, longest first, so that
# the order (which sets how long each job waits) does not vary by seed.
BATCH_ORDER = ("simulate/dect/gate", "simulate/rs/rtl", "simulate/cpu/rtl", "stuck-at/hcor",
               "simulate/hcor/compiled", "seu/dect/gate", "simulate/hcor/rtl",
               "simulate/hcor/native", "simulate/rs/compiled", "simulate/cpu/compiled",
               "simulate/rs/native", "simulate/cpu/native", "seu/dect/compiled", "stuck-at/rs")


def batch_manifest(seed):
    """A few long jobs: DECT on the gate engine for about 800 cycles,
    HCOR, RS and CPU for about 1.6 * 10^4 cycles on compiled, native and
    rtl, DECT SEU campaigns on gate and compiled, HCOR and RS stuck-at
    campaigns of about a hundred faults; one heavy job submitted twice.
    A round takes about 2.5 s on one domain, so a run measures about
    ten rounds."""
    rng = random.Random("batch-long/%d" % seed)
    jobs = {"simulate/dect/gate": _line(kind="simulate", design="dect", engine="gate",
                                        cycles=rng.randrange(800, 867),
                                        seed=rng.randrange(1, 1000))}
    for d in ("hcor", "rs", "cpu"):
        cycles, sim_seed = rng.randrange(16000, 17334), rng.randrange(1, 1000)
        for e in ("compiled", "native", "rtl"):
            jobs["simulate/%s/%s" % (d, e)] = _line(kind="simulate", design=d, engine=e,
                                                    cycles=cycles, seed=sim_seed)
    jobs["seu/dect/gate"] = _line(kind="seu", design="dect", engine="gate",
                                  runs=rng.randrange(30, 37), cycles=48,
                                  seed=rng.randrange(1, 1000))
    jobs["seu/dect/compiled"] = _line(kind="seu", design="dect", engine="compiled",
                                      runs=rng.randrange(127, 141), cycles=48,
                                      seed=rng.randrange(1, 1000))
    for d in ("hcor", "rs"):
        jobs["stuck-at/" + d] = _line(kind="stuck-at", design=d, cycles=48,
                                      seed=rng.randrange(1, 1000),
                                      max_faults=rng.randrange(93, 107))
    lines = [jobs[k] for k in BATCH_ORDER]
    heavy = rng.choice(lines[:8])
    lines.insert(rng.randrange(lines.index(heavy) + 1, len(lines) + 1), heavy)
    return lines


def fuzz_campaign_seed(seed):
    return random.Random("fuzz-fresh/%d" % seed).randrange(1, 1 << 30)


# --- output checks --------------------------------------------------------------

def tree_digest(path):
    """sha256 over the sorted (file name, bytes) pairs of a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def engine_disagreements(path):
    """Simulate artifacts of one design and cycle count must carry the
    same probe histories whatever the engine.  Artifact names are
    simulate-<design>-<engine>-c<cycles>-<key>.json; the canonical bytes
    differ only in the engine field.  Returns a list of messages."""
    groups = {}
    for name in sorted(os.listdir(path)):
        parts = name.split("-")
        if parts[0] != "simulate" or len(parts) < 5:
            continue
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        cut = data.find(b'"cycles":')
        groups.setdefault((parts[1], parts[3]), []).append((parts[2], data[cut:]))
    bad = []
    for (design, cycles), runs in sorted(groups.items()):
        ref_engine, ref = runs[0]
        for engine, data in runs[1:]:
            if data != ref:
                bad.append("%s %s: %s disagrees with %s" % (design, cycles, engine, ref_engine))
    return bad


def fuzz_report_problems(path):
    with open(path) as f:
        rep = json.load(f)
    probs = []
    if rep.get("divergent") != 0:
        probs.append("fuzz report: %s divergent design(s)" % rep.get("divergent"))
    if rep.get("replay_failures") != 0:
        probs.append("fuzz report: %s corpus replay failure(s)" % rep.get("replay_failures"))
    return probs


def check_outputs(workload, seed, raw, expected):
    """Every check a run must pass.  Returns a list of problems."""
    probs = []
    rounds = raw["rounds"]
    for i, r in enumerate(rounds):
        if r["failed"]:
            probs.append("round %d: %d job(s) failed" % (i, r["failed"]))
    # Rounds of one campaign must write identical trees: every round of
    # serve-short and batch-long, the warm-up and first round of
    # fuzz-fresh (whose other rounds fuzz other campaign seeds).
    trees = {}
    for r in rounds + ([raw["warmup"]] if raw.get("warmup") else []):
        trees.setdefault(r.get("campaign"), set()).add(tree_digest(r["artifact_dir"]))
    if any(len(t) > 1 for t in trees.values()):
        probs.append("artifact trees differ between rounds of one campaign")
    digest = tree_digest(rounds[0]["artifact_dir"])
    if seed == DEFAULT_SEED and expected.get(workload) and digest != expected[workload]:
        probs.append("artifact digest %s != recorded %s" % (digest, expected[workload]))
    if workload == "fuzz-fresh":
        for r in rounds:
            probs += fuzz_report_problems(os.path.join(r["artifact_dir"], "fuzz-report.json"))
    else:
        probs += engine_disagreements(rounds[-1]["artifact_dir"])
    if raw["host"]["native"] != "ok" or raw["native"]["fallbacks"]:
        probs.append("native engine unavailable or fell back")
    return probs, digest


# --- metrics --------------------------------------------------------------------

def end_to_end(raw):
    rounds = raw["rounds"]
    lat = [x for r in rounds for x in r["latencies"]]
    # Rates over all measured rounds together: on fuzz-fresh each round
    # fuzzes other designs, so no single round stands for the run.
    span = sum(r["makespan_s"] for r in rounds)
    vals = {
        "setup_s": statistics.median(raw["setup_s"]),
        "jobs_per_s": sum(r["jobs"] for r in rounds) / span,
        "sim_cycles_per_s": sum(r["sim_cycles"] for r in rounds) / span,
        "job_p50_s": percentile(lat, 0.5),
        "job_p90_s": percentile(lat, 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    samples = {"setup_s": len(raw["setup_s"]), "jobs_per_s": len(rounds),
               "sim_cycles_per_s": len(rounds), "job_p50_s": len(lat),
               "job_p90_s": len(lat), "peak_rss_mb": 1}
    return vals, samples, lat


def per_layer(workload, raw):
    """Per-layer metrics, extras and the self-time table of a traced run."""
    td = raw["trace_data"]
    spans = td["spans"]
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        e = by_name.setdefault(s["name"], {"calls": 0, "self": 0.0, "args": {}})
        e["calls"] += 1
        e["self"] += selfs[s["id"]]
        for k, v in s["args"].items():
            if k == "resident_words":
                e["args"][k] = max(e["args"].get(k, 0), v)
            else:
                e["args"][k] = e["args"].get(k, 0) + v
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)

    def self_of(name):
        return by_name.get(name, {}).get("self", 0.0)

    def arg(name, key):
        return by_name.get(name, {}).get("args", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def family(prefix, suffix=""):
        return [k for k in by_name if k.startswith(prefix) and k.endswith(suffix)]

    m, x = {}, {}
    traced, untraced = td["traced_round"], td["untraced_round"]
    ex = traced["executor"]
    parses = [s["end"] - s["start"] for s in td["round_spans"]
              if s["name"] in ("manifest.parse", "corpus.load")]
    m["manifest.parse_s"] = statistics.median(parses)
    m["executor.queue_wait_s"] = statistics.median(ex["queue_wait_s"])
    m["executor.job_wall_s"] = statistics.median(ex["job_wall_s"])
    # Executor job time against the same job run serially in-process:
    # the replay's job span (the deep check for a fuzz design).
    inproc_name = "diff.deep" if workload == "fuzz-fresh" else "job"
    inproc = {s["corr"]: s["end"] - s["start"] for s in spans if s["name"] == inproc_name}
    walls = {c: w for c, w in ex["job_wall_by_corr"].items() if c in inproc}
    over = [w - inproc[c] for c, w in walls.items()]
    m["executor.overhead_s"] = statistics.median(over)
    m["share.executor_overhead"] = ratio(sum(over), sum(walls.values()))
    m["executor.busy_ratio"] = ex["busy_s"] / (ex["domains"] * traced["makespan_s"])
    m["executor.dedup_ratio"] = ex.get("dedup_ratio", 0.0)
    m["executor.retries"] = ex.get("retries", 0)
    m["designs.build_s"] = self_of("designs.build")
    m["sched.digest_s"] = self_of("sched.digest")
    for e in ENGINES:
        d = m if e != "interp" else x
        d["engine.%s.build_s" % e] = self_of("engine.%s.build" % e)
        d["engine.%s.step_s" % e] = self_of("engine.%s.step" % e)
        d["engine.%s.cycles_per_s" % e] = ratio(arg("engine.%s.step" % e, "cycles"),
                                                self_of("engine.%s.step" % e))
        d["engine.%s.resident_words" % e] = arg("engine.%s.step" % e, "resident_words")
    compile_s = sum(selfs[s["id"]] for s in spans
                    if s["name"] == "engine.native.build" and s["args"].get("compiled"))
    nat = td["native_round"]
    if not nat["compiles"] + nat["cache_hits"]:
        nat = td["native_replay"]
    m["native.hit_ratio"] = ratio(nat["cache_hits"], nat["cache_hits"] + nat["compiles"])
    for k in ("lower_to_gate", "optimize_gates", "equivalence"):
        m["ir.%s_s" % k] = self_of("ir." + k)
    m["fault.stuck_at.faults_per_s"] = ratio(arg("fault.stuck_at", "faults"),
                                             self_of("fault.stuck_at"))
    seu = family("fault.seu.")
    m["fault.seu.runs_per_s"] = ratio(sum(arg(k, "runs") for k in seu),
                                      sum(self_of(k) for k in seu))
    for k in seu:
        x[k + ".runs_per_s"] = ratio(arg(k, "runs"), self_of(k))
    c = td["counters"]
    m["gates.evaluations_per_cycle"] = ratio(c.get("gates.evaluations", 0),
                                             c.get("gates.clocks", 0))
    m["obs.json_s"] = self_of("obs.json")
    m["obs.json_mb_per_s"] = ratio(arg("obs.json", "bytes") / 1e6, self_of("obs.json"))
    m["artifact.bytes"] = traced["artifact_bytes"]
    m["artifact.write_s"] = self_of("artifact.write")
    m["gc.minor_mwords"] = td["gc"]["minor_words"] / 1e6
    m["gc.major_collections"] = td["gc"]["major_collections"]
    m["trace.unattributed_s"] = sum(self_of(k) for k in ("job", "ir", "report"))
    m["trace.overhead_ratio"] = traced["makespan_s"] / untraced["makespan_s"] - 1.0
    m["share.stepping"] = ratio(sum(self_of(k) for k in family("engine.", ".step")), total)
    m["share.fault"] = ratio(sum(self_of(k) for k in family("fault.")), total)
    m["share.obs_json"] = ratio(self_of("obs.json"), total)
    m["share.native_compile"] = ratio(compile_s, total)
    x["native.compile_s"] = compile_s
    x["diff.generate_s"] = self_of("diff.generate")
    x["diff.check_s"] = self_of("diff.check")
    x["diff.deep_s"] = self_of("diff.deep")
    if td["process_exit_s"]:
        x["native.process_exit_s"] = statistics.median(td["process_exit_s"])
    table = sorted(((k, v["calls"], v["self"]) for k, v in by_name.items()),
                   key=lambda t: -t[2])
    return m, x, table, total


# --- running ----------------------------------------------------------------------

def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        log("run.py: %s is not an ocapi-ml checkout (no dune-project)" % ROOT)
        return False
    cmd = ["dune", "build", "--root", ROOT, "-j", "2", "--cache=disabled",
           "./campaign_bench/campaign.exe", "./bin/ocapi_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("run.py: build failed: %s" % e)
        return False
    return r.returncode == 0


def run_campaign(args, work, raw_path, deadline):
    env = dict(os.environ)
    env["OCAPI_NATIVE_CACHE_DIR"] = os.path.join(work, "ncache")
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [RUNNER, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work, "--cli", CLI, "--corpus", CORPUS,
           "--out", raw_path]
    if args.workload == "fuzz-fresh":
        cmd += ["--seed", str(fuzz_campaign_seed(args.seed))]
    else:
        lines = serve_manifest(args.seed) if args.workload == "serve-short" \
            else batch_manifest(args.seed)
        manifest = os.path.join(work, "manifest.jsonl")
        with open(manifest, "w") as f:
            f.write("\n".join(lines) + "\n")
        cmd += ["--manifest", manifest]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: the campaign runner exceeded the time limit")
        return False
    return code == 0


def print_table(rows):
    for row in rows:
        print("  %-34s %16s  %-8s %s" % row)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pool", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
        return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.pool:
        return pool(args.workload)
    if not build():
        return 1
    deadline = time.time() + DEADLINE_S
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    if not run_campaign(args, work, raw_path, deadline):
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    try:
        with open(EXPECTED) as f:
            expected = json.load(f)
    except OSError:
        expected = {}
    if args.record_digests:
        expected.pop(args.workload, None)
    problems, digest = check_outputs(args.workload, args.seed, raw, expected)
    if args.record_digests:
        if args.seed != DEFAULT_SEED or problems:
            log("run.py: digests are recorded from a clean default-seed run only")
            return 1
        expected[args.workload] = digest
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")
    attempted = sum(r["jobs"] for r in raw["rounds"])
    failed = sum(r["failed"] for r in raw["rounds"])
    host = raw["host"]
    print("campaign benchmark: workload %s, seed %d, trace %d, %d round(s)" %
          (args.workload, args.seed, args.trace, len(raw["rounds"])))
    print("host: nproc %d, OCaml %s, native %s" % (host["nproc"], host["ocaml"], host["native"]))
    if args.trace == 0:
        vals, samples, lat = end_to_end(raw)
        metrics = {k: {"value": vals[k], "unit": u} for k, u in END_TO_END}
        print_table([(k, "%.6g" % vals[k], u, "n=%d" % samples[k]) for k, u in END_TO_END])
        tail = tail_percentile(len(lat))
        if tail is not None and tail < 90:
            print("  note: %d latency samples; the highest percentile with ten beyond is p%g "
                  "(p%g = %.4g s); pool runs with --pool for p90" %
                  (len(lat), tail, tail, percentile(lat, tail / 100)))
        if args.workload == "serve-short":
            print("  note: peak_rss_mb is the supervising process only; workers are excluded")
    else:
        vals, extras, table, total = per_layer(args.workload, raw)
        metrics = {k: {"value": vals[k], "unit": u} for k, u in PER_LAYER}
        print("layer self time over the serial replay of every distinct job (%.3f s):" % total)
        print_table([(name, "%.4f s" % s, "%5.1f%%" % (100 * s / total if total else 0),
                      "calls=%d" % calls) for name, calls, s in table])
        print("unattributed (job, ir and report spans' own time): %.4f s; tracing overhead "
              "(traced vs untraced round): %+.1f%%" %
              (vals["trace.unattributed_s"], 100 * vals["trace.overhead_ratio"]))
        print("per-layer metrics:")
        print_table([(k, "%.6g" % vals[k], u, "") for k, u in PER_LAYER])
        print("extras (layers this workload alone reaches):")
        print_table([(k, "%.6g" % v, "", "") for k, v in sorted(extras.items()) if v])
    correct = not problems
    for p in problems:
        log("CHECK FAILED: " + p)
    summary = {"correct": correct, "attempted": attempted,
               "failed": failed + (0 if correct else 1), "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-s%d-t%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(dict(summary, latencies=[x for r in raw["rounds"] for x in r["latencies"]]), f)
    for name in os.listdir(work):
        if os.path.isdir(os.path.join(work, name)):
            shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    print(json.dumps(summary))
    return 0 if correct else 1


def pool(workload):
    """Median, quartiles and spread of every end-to-end metric over the
    saved untraced runs of a workload, and p50/p90 over their pooled
    latency samples with the sample count."""
    rdir = os.path.join(WORK, "results")
    runs = []
    for name in sorted(os.listdir(rdir)) if os.path.isdir(rdir) else []:
        if name.startswith(workload + "-s") and name.endswith("-t0.json"):
            with open(os.path.join(rdir, name)) as f:
                runs.append(json.load(f))
    if len(runs) < 2:
        log("run.py: fewer than two saved runs of %s" % workload)
        return 1
    out = {"workload": workload, "runs": len(runs), "metrics": {}}
    for name, unit in END_TO_END:
        q1, med, q3, spread = quartile_spread([r["metrics"][name]["value"] for r in runs])
        out["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f  %s" %
              (name, med, q1, q3, spread, unit))
    lat = [x for r in runs for x in r["latencies"]]
    out["pooled_latency"] = {"samples": len(lat), "p50_s": percentile(lat, 0.5),
                             "p90_s": percentile(lat, 0.9), "tail_percentile": tail_percentile(len(lat))}
    print("  pooled latency: %d samples, p50 %.4g s, p90 %.4g s; highest percentile with ten "
          "samples beyond: p%g" % (len(lat), out["pooled_latency"]["p50_s"],
                                   out["pooled_latency"]["p90_s"], tail_percentile(len(lat))))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
