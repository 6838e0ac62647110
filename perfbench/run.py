#!/usr/bin/env python3
"""End-to-end benchmark of the sega_dcim compiler.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record-digests

The first run builds sega_dcim and perfbench_driver from source (CMake,
Release) into $CARGO_TARGET_DIR, else .bench_build.  Every workload command
is the sega_dcim binary run as a user runs it: --no-daemon (serve_mix
aside), one process per command, --threads 1, in a fresh directory under
.bench_run.  The last stdout line is the result JSON; the line before it
records the host.  --trace 1 reports the per-layer split instead of the
end-to-end metrics.  See perfbench/NOTES.md for what each workload and
metric is for.
"""

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUN_DIR = os.path.join(ROOT, ".bench_run")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

GRID_WSTORES = [4096, 8192, 16384, 32768, 65536, 131072]
PRECISIONS = ["INT2", "INT4", "INT8", "INT16", "FP8", "FP16", "BF16", "FP32"]
MEMO_WSTORES = [4096]
LAYOUT_CELL = (256, "INT8")
KNEES = ([4096], ["INT8", "FP16", "FP32"])  # the default validate grid
HELD_OUT_SEED = 4242  # confirms claims; never used while tuning a change
DIGEST_SEEDS = list(range(64)) + [HELD_OUT_SEED]
SETUP_PROBES = 40  # per pair

# Per-layer splits a traced run reports, as (parts, whole): the parts may
# not sum to more than the span they split.  The spans split into parts
# after the traced window (layout and RTL stages, timed on their own) are
# checked against the whole they claim to split, so an overlap or a double
# count shows; rtl.simulate_s = evaluate - harness - sta stays >= 0.
SPLITS = {
    "grid_sweep": [(["nsga2.total_s"], "trace.run_s")],
    "grid_memo": [(["nsga2.total_s", "io.memo_save_s", "io.memo_load_s"], "trace.run_s")],
    "layout_cell": [
        (["nsga2.total_s"], "trace.run_s"),
        (["cost.layout.elaborate_s", "cost.layout.floorplan_s", "cost.layout.hpwl_s"],
         "nsga2.evaluate_s"),
    ],
    "validate_knees": [
        (["validate.dse_s", "rtl.evaluate_s"], "trace.run_s"),
        (["rtl.harness_s", "rtl.sta_s"], "rtl.evaluate_s"),
        (["rtl.elaborate_s"], "rtl.harness_s"),
    ],
    "serve_mix": [(["serve.wait_s"], "trace.run_s")],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


# ------------------------------------------------------------------- build


def build():
    """Build the binaries from this checkout; exit 2 when there is no source."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("perfbench: no sega_dcim source tree next to perfbench/")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sega_dcim", "perfbench_driver", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed")
            sys.exit(2)
    return os.path.join(BUILD, "sega", "sega_dcim"), os.path.join(BUILD, "perfbench_driver")


def host_metadata():
    """Measured parallelism: 4 concurrent copies of a fixed CPU loop vs 1."""

    def spin(copies):
        t0 = now()
        pids = []
        for _ in range(copies):
            pid = os.fork()
            if pid == 0:
                x = 0
                for i in range(3_000_000):
                    x += i
                os._exit(0)
            pids.append(pid)
        for pid in pids:
            os.waitpid(pid, 0)
        return now() - t0

    one = min(spin(1) for _ in range(2))
    four = min(spin(4) for _ in range(2))
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    return {
        "effective_parallelism": round(4 * one / four, 2),
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "compiler": version.splitlines()[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


# --------------------------------------------------------------- processes


class Ctx:
    def __init__(self, workload, seed, seconds, binary, driver, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.binary = binary
        self.driver = driver
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.setup = []  # setup_probe wall times
        self._n = 0

    def fresh_dir(self):
        self._n += 1
        path = os.path.join(self.workdir, "d%d" % self._n)
        os.makedirs(path)
        return path

    def fail(self, what):
        self.failed += 1
        log("perfbench: check failed: " + what)


def run_cmd(argv, cwd):
    """Run one command; returns (wall seconds, peak RSS MiB, exit code, stdout)."""
    out_path = os.path.join(cwd, "stdout.txt")
    with open(out_path, "wb") as out:
        t0 = now()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout


def driver_json(ctx, args, payload):
    """Run one perfbench_driver subcommand in its own process group; anything
    it leaves behind (a serve daemon, if it died mid-round) is killed and
    reaped before returning."""
    path = os.path.join(ctx.workdir, "driver-in.json")
    with open(path, "w") as f:
        json.dump(payload, f)
    env = dict(os.environ, SEGA_THREADS="1")
    proc = subprocess.Popen([ctx.driver] + args + [path], cwd=ctx.workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reap_orphans()
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_driver %s exited %d" % (args[0], proc.returncode))
    return json.loads(stdout.strip().splitlines()[-1])


def reap_orphans():
    """Wait for every descendant re-parented to this process (it is a child
    subreaper, so an orphaned daemon lands here rather than on init)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, 0)
        except ChildProcessError:
            return
        if pid == 0:
            return


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def expected_digest(workload, seed):
    """The stored output digest: one per seed, or one for every seed."""
    if not os.path.isfile(EXPECTED):
        return None
    with open(EXPECTED) as f:
        stored = json.load(f).get(workload)
    return stored.get(str(seed)) if isinstance(stored, dict) else stored


def csv_rows(data):
    """Rows of a sweep or validate CSV, integer columns converted."""
    lines = data.decode().strip().splitlines()
    header = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in ("wstore", "front_size", "evaluations", "n", "h", "l", "k"):
            if key in row:
                row[key] = int(row[key])
        rows.append(row)
    return rows


def setup_probe(ctx):
    """Process start-up plus technology construction, which every command
    pays before its own work: `sega_dcim techlib`, timed SETUP_PROBES times
    after each pair so the probes sample the whole run, not one moment."""
    cwd = os.path.join(ctx.workdir, "setup")
    os.makedirs(cwd, exist_ok=True)
    for _ in range(SETUP_PROBES):
        wall, _, code, _ = run_cmd([ctx.binary, "techlib"], cwd)
        if code != 0:
            ctx.fail("techlib exited %d" % code)
        ctx.setup.append(wall)


# -------------------------------------------------------- CLI workloads


def measure_pairs(ctx, argv, check, pairs=None):
    """Run `argv` twice per fresh directory (run, then rerun on what the first
    pass left), pair after pair while half a pair more still fits in
    --seconds; at least one pair."""
    run, rerun, rss = [], [], []
    start = now()
    while True:
        cwd = ctx.fresh_dir()
        pair_start = now()
        for label in ("run", "rerun"):
            wall, peak, code, stdout = run_cmd(argv, cwd)
            ctx.attempted += 1
            if code != 0:
                ctx.fail("%s exited %d" % (" ".join(argv[1:3]), code))
            else:
                check(label, cwd, stdout)
            (run if label == "run" else rerun).append(wall)
            rss.append(peak)
        setup_probe(ctx)
        pair = now() - pair_start
        if pairs is not None and len(run) >= pairs:
            break
        if pairs is None and now() - start + pair / 2 > ctx.seconds:
            break
    # Other processes on the host only ever slow a command down, in bursts
    # of seconds, so the command's own cost is the lower quartile of its
    # times; the request figures keep the medians a user sees.  A run holds
    # 2 to 20 commands, too few for a 90th percentile with any sample beyond
    # it; the tail estimate is the slower command of each pair, medianed
    # over pairs.  A repeated command is the rerun, a new one the run.
    ops = run + rerun
    return {
        "run_s": lower_quartile(run),
        "rerun_s": lower_quartile(rerun),
        "peak_rss_mb": statistics.median(rss),
        "req_p50_ms": 1e3 * statistics.median((a + b) / 2 for a, b in zip(run, rerun)),
        "req_p90_ms": 1e3 * statistics.median(map(max, run, rerun)),
        "req_per_s": len(ops) / sum(ops),
        "replay_ms": 1e3 * lower_quartile(rerun),
        "execute_ms": 1e3 * lower_quartile(run),
    }


def lower_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def same_bytes_check(ctx, name, reference):
    """Check every pass prints `reference`, or, when None, what the first
    pass printed; `seen["first"]` keeps that output for further checks."""
    seen = {}

    def check(label, cwd, stdout):
        if "first" not in seen:
            seen["first"] = stdout
        want = reference if reference is not None else seen["first"]
        if stdout != want:
            ctx.fail("%s %s output differs from its reference" % (name, label))

    return check, seen


def sweep_argv(ctx, *extra):
    return [ctx.binary, "sweep", "--no-daemon", "--threads", "1", "--seed", str(ctx.seed)] + list(extra)


def digest_or_threads_check(ctx, outputs, argv, read_output):
    """Output check of a deterministic command: the stored digest for this
    seed, else byte-identity with the same command at --threads 3 (the
    thread-count invariance every command promises)."""
    digest = expected_digest(ctx.workload, ctx.seed)
    got = outputs.get("first")
    if got is None:
        return
    if digest is not None:
        if sha256(got) != digest:
            ctx.fail("%s output digest differs from the stored one" % ctx.workload)
        return
    threaded = [a if a != "1" or argv[i - 1] != "--threads" else "3" for i, a in enumerate(argv)]
    cwd = ctx.fresh_dir()
    _, _, code, stdout = run_cmd(threaded, cwd)
    if code != 0 or read_output(cwd, stdout) != got:
        ctx.fail("%s output differs from the --threads 3 reference" % ctx.workload)


def grid_params(ctx, wstores, precisions, **extra):
    return dict({"wstores": wstores, "precisions": precisions, "seed": ctx.seed}, **extra)


def wl_grid_sweep(ctx, pairs=None):
    argv = sweep_argv(ctx)
    check, seen = same_bytes_check(ctx, "sweep", None)
    metrics = measure_pairs(ctx, argv, check, pairs)
    digest_or_threads_check(ctx, seen, argv, lambda cwd, stdout: stdout)
    params = grid_params(ctx, GRID_WSTORES, PRECISIONS, rows=csv_rows(seen.get("first", b"")))
    return metrics, params


def wl_grid_memo(ctx, pairs=None):
    wstores = ",".join(map(str, MEMO_WSTORES))
    ref_cwd = ctx.fresh_dir()
    _, _, code, reference = run_cmd(sweep_argv(ctx, "--wstores", wstores), ref_cwd)
    if code != 0:
        ctx.fail("reference sweep exited %d" % code)
    argv = sweep_argv(ctx, "--wstores", wstores, "--checkpoint", "ckpt.jsonl", "--cache-file", "memo.jsonl")
    check, _ = same_bytes_check(ctx, "memo sweep", reference)
    metrics = measure_pairs(ctx, argv, check, pairs)
    return metrics, grid_params(ctx, MEMO_WSTORES, PRECISIONS, rows=csv_rows(reference))


def wl_layout_cell(ctx, pairs=None):
    wstore, precision = LAYOUT_CELL
    argv = sweep_argv(ctx, "--layout", "--wstores", str(wstore), "--precisions", precision)
    check, seen = same_bytes_check(ctx, "layout sweep", None)
    metrics = measure_pairs(ctx, argv, check, pairs)
    output = seen.get("first", b"")
    rows = csv_rows(output)
    want = driver_json(ctx, ["knees"], {"knees": rows})["rows"] if rows else []
    got = [",".join(line.split(",")[8:]) for line in output.decode().strip().splitlines()[1:]]
    if not rows or got != want:
        ctx.fail("layout knee metrics differ from the flat reference path")
    return metrics, grid_params(ctx, [wstore], [precision], layout=True, rows=rows)


def validate_argv(ctx):
    return [ctx.binary, "validate", "--no-daemon", "--threads", "1", "--seed", str(ctx.seed), "--out", "out"]


def read_validate_csv(cwd, _stdout):
    with open(os.path.join(cwd, "out", "validate.csv"), "rb") as f:
        return f.read()


def wl_validate_knees(ctx, pairs=None):
    argv = validate_argv(ctx)
    inner, seen = same_bytes_check(ctx, "validate.csv", None)

    def check(label, cwd, stdout):
        inner(label, cwd, read_validate_csv(cwd, stdout))

    metrics = measure_pairs(ctx, argv, check, pairs)
    digest_or_threads_check(ctx, seen, argv, read_validate_csv)
    return metrics, grid_params(ctx, KNEES[0], KNEES[1], rows=csv_rows(seen.get("first", b"")))


# ----------------------------------------------------------------- serve_mix

SERVE_WARM = [(4096, "INT8"), (4096, "FP16"), (16384, "INT4"), (16384, "BF16"), (65536, "INT8"), (65536, "FP8")]
SERVE_BUDGET = ["--population", "32", "--generations", "16"]
SERVE_PASS = 1000  # requests per timed pass (run_s, rerun_s)


def explore_argv(wstore, precision, seed, sparsity=None):
    argv = ["explore", "--wstore", str(wstore), "--precision", precision, "--threads", "1"] + SERVE_BUDGET
    argv += ["--seed", str(seed)]
    if sparsity is not None:
        argv += ["--sparsity", sparsity]
    return argv


def serve_plan(seed):
    """The seeded request mix, in blocks of 200 shuffled requests: 120 exact
    repeats of one of the last 16 distinct requests (response-cache replays),
    79 new seeds on the six warm cells (executions with cost-cache point
    hits), 1 cold cell (a cell/sparsity pair no request has evaluated).  The
    block composition and the warm-cell rotation are fixed, so seeds change
    which requests are sent, not how much work they are."""
    rng = random.Random(seed)
    pool = [explore_argv(*SERVE_WARM[i % len(SERVE_WARM)], rng.randrange(1, 10**6)) for i in range(192)]
    cold = [(w, p, s) for w in GRID_WSTORES[:2] for p in PRECISIONS for s in ("0.1", "0.2")
            if (w, p) not in SERVE_WARM]
    rng.shuffle(cold)
    plan, recent, n_new, n_cold = [], [], 0, 0
    while len(plan) < 6000:
        block = ["repeat"] * 120 + ["new"] * 79 + ["cold"]
        rng.shuffle(block)
        for label in block:
            if label == "repeat" and recent:
                plan.append({"argv": rng.choice(recent[-16:]), "label": label})
                continue
            if label == "cold":
                w, p, s = cold[n_cold % len(cold)]
                argv = explore_argv(w, p, rng.randrange(1, 10**6), s)
                n_cold += 1
            else:
                argv, label = pool[n_new % len(pool)], "new"
                n_new += 1
            plan.append({"argv": argv, "label": label})
            recent.append(argv)
    prime = [explore_argv(w, p, 0) for w, p in SERVE_WARM]
    return plan, prime


def serve_run(ctx, rounds, seconds, trace):
    plan, prime = serve_plan(ctx.seed)
    socket = os.path.relpath(os.path.join(ctx.workdir, "serve.sock"), ctx.workdir)
    return driver_json(ctx, ["serve"], {
        "binary": ctx.binary, "socket": socket, "rounds": rounds, "seconds": seconds,
        "connections": 2, "pass": SERVE_PASS, "trace": trace, "prime": prime, "plan": plan,
    })


def wl_serve_mix(ctx, rounds=5):
    res = serve_run(ctx, rounds, ctx.seconds, False)
    ctx.attempted += res["attempted"]
    ctx.failed += res["failed"]
    if res["failed"]:
        log("perfbench: %d serve request(s) failed or differ from --no-daemon" % res["failed"])
    metrics = {k: res[k] for k in ("run_s", "rerun_s", "peak_rss_mb", "front_recall", "req_p50_ms",
                                   "req_p90_ms", "req_per_s", "replay_ms", "execute_ms",
                                   "setup_s")}
    return metrics, res


WORKLOADS = {
    "grid_sweep": wl_grid_sweep,
    "grid_memo": wl_grid_memo,
    "layout_cell": wl_layout_cell,
    "validate_knees": wl_validate_knees,
    "serve_mix": wl_serve_mix,
}


# ------------------------------------------------------------------ modes


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(ctx):
    if ctx.workload == "serve_mix":
        metrics, _ = wl_serve_mix(ctx)
        return metrics
    metrics, params = WORKLOADS[ctx.workload](ctx)
    recall = driver_json(ctx, ["recall"], params)
    if recall["mismatched"]:
        ctx.fail("%d cell(s) of the in-process replay differ from the command's output"
                 % recall["mismatched"])
    metrics["front_recall"] = recall["mean"]
    metrics["setup_s"] = statistics.median(ctx.setup)
    return metrics


def traced(ctx):
    """Per-layer split: one untraced pass for comparison, then the traced
    replay in perfbench_driver.  Layers a workload does not exercise read 0."""
    if ctx.workload == "serve_mix":
        untraced = wl_serve_mix(ctx, rounds=1)[0]["run_s"]
        res = serve_run(ctx, 1, 0.0, True)
        ctx.attempted += res["attempted"]
        ctx.failed += res["failed"]
        layers = res["trace"]
    else:
        metrics, params = WORKLOADS[ctx.workload](ctx, pairs=1)
        untraced = metrics["run_s"]
        if ctx.workload == "grid_memo":
            untraced += metrics["rerun_s"]
            params["dir"] = ctx.fresh_dir()
        layers = driver_json(ctx, ["trace", ctx.workload], params)
        ctx.attempted += 1
        if ctx.workload == "grid_memo":
            if layers["cache.misses"] != 0:
                ctx.fail("warm memo pass missed the cache %d time(s)" % layers["cache.misses"])
            if not layers.pop("check.resume_identical"):
                ctx.fail("checkpoint resume changed the sweep output")
    layers["trace.overhead_s"] = layers["trace.run_s"] - untraced
    return {m["name"]: layers.get(m["name"], 0) for m in spec()["per_layer"]}


def run_workload(workload, seed, seconds, trace, binary, driver):
    workdir = os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = Ctx(workload, seed, seconds, binary, driver, workdir)
    try:
        values = traced(ctx) if trace else end_to_end(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    return {
        "correct": ctx.failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def self_test(binary, driver):
    """Every workload at minimal size, untraced and traced: every metric of
    BENCHMARK.json printed with its unit, and the parts of each per-layer
    split (SPLITS) summing to no more than the span they split."""
    bench = spec()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 1, 1, trace, binary, driver)
            names = bench["per_layer" if trace else "end_to_end"]
            for m in names:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    ok = False
                    log("self-test: %s trace=%d lacks %s [%s]" % (workload, trace, m["name"], m["unit"]))
            if not result["correct"]:
                ok = False
                log("self-test: %s trace=%d failed its output checks" % (workload, trace))
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                for parts, whole in SPLITS[workload]:
                    total = sum(values[s] for s in parts)
                    if total > values[whole]:
                        ok = False
                        log("self-test: %s %s sum to %.4fs, more than %s %.4fs"
                            % (workload, "+".join(parts), total, whole, values[whole]))
            log("self-test: %s trace=%d done" % (workload, trace))
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def record_digests(binary, driver):
    """Regenerate perfbench/expected.json from this build (run it only when
    a change is meant to alter these outputs).  grid_sweep has a digest per
    seed; the validate knees do not depend on the seed, so validate_knees
    has one digest, recorded from one run, checked for every seed."""
    workdir = os.path.join(RUN_DIR, "record-%d" % os.getpid())

    def digest(workload, seed, make_argv, read_output):
        os.makedirs(workdir, exist_ok=True)
        ctx = Ctx(workload, seed, 0, binary, driver, workdir)
        cwd = ctx.fresh_dir()
        _, _, code, stdout = run_cmd(make_argv(ctx), cwd)
        output = read_output(cwd, stdout) if code == 0 else b""
        shutil.rmtree(workdir, ignore_errors=True)
        if code != 0:
            log("record: %s seed %d exited %d" % (workload, seed, code))
            sys.exit(1)
        return sha256(output)

    table = {"grid_sweep": {}, "validate_knees": digest("validate_knees", HELD_OUT_SEED,
                                                        validate_argv, read_validate_csv)}
    for seed in DIGEST_SEEDS:
        table["grid_sweep"][str(seed)] = digest("grid_sweep", seed, sweep_argv,
                                                lambda cwd, stdout: stdout)
        log("record: seed %d" % seed)
    with open(EXPECTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    binary, driver = build()
    if args.self_test:
        return self_test(binary, driver)
    if args.record_digests:
        return record_digests(binary, driver)
    if not args.workload:
        ap.error("--workload is required")
    print(json.dumps({"host": host_metadata(), "workload": args.workload, "seed": args.seed}))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, binary, driver)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
