#!/usr/bin/env python3
"""Host-cost benchmark of the lottery-scheduling stack.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the benchmark (dune, into .bench_build/), run one workload and
      print one JSON result as the last line of stdout. Exits nonzero when
      an output check fails.
  python3 perfbench/run.py sweep --runs 10 --out FILE [--workloads a,b]
      [--seed0 N] [--seconds S] [--trace 0|1]
      Run every workload RUNS times on seeds SEED0.. and write a result file
      (commit, CPU model, nproc, OCaml version, every per-run sample).
  python3 perfbench/run.py compare OLD NEW
      Compare two result files metric by metric against BENCHMARK.json.
  python3 perfbench/run.py selftest
      Service equivalence and failure-marking checks.
  python3 perfbench/run.py record-digests
      Re-record the simulated-statistics digests of the default seeds (only
      after a change that is meant to alter the simulation).

See perfbench/README.md.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "perfbench.exe")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ["sched-scale", "service-overload", "funding-churn"]
# Set-up is timed in this many fresh processes (half before the timed run,
# half after it, the timed run's own set-up included) and reported as the
# median.
SETUPS = 5
# The benchmark program's host-speed reference table (2^23 words), resident
# for the whole run and excluded from the reported peak RSS.
REF_TABLE_MB = 64.0


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    """BENCHMARK.json at the checkout root: metric names, units, bounds."""
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Build the benchmark from the checkout's sources into .bench_build."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a lottery-scheduling checkout "
             "(dune-project and lib/ not found)")
    os.makedirs(os.path.join(BUILD_DIR, "cache"), exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "cache"))
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "dune")),
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_exe(args):
    """Run the benchmark program; return (parsed last stdout line, exit code,
    peak RSS in MB of that process)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("benchmark program printed nothing (exit %d)" % proc.returncode, 1)
    rss_mb = rusage.ru_maxrss / 1024.0 - REF_TABLE_MB
    return json.loads(lines[-1]), proc.returncode, rss_mb


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def digest_key(seed, seconds):
    return "%d:%d" % (seed, seconds)


def run_workload(workload, seed, seconds, trace, extra=()):
    """One benchmark run. Returns (result dict, raw program output)."""
    args = ["--workload", workload, "--seconds", str(seconds),
            "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    setups = []

    def setup_only():
        r, code, _ = run_exe(args + ["--setup-only"])
        if code != 0:
            fail("set-up run exited %d" % code, 1)
        setups.append(r["metrics"]["setup_s"])

    if not trace:
        for _ in range(SETUPS // 2):
            setup_only()
    raw, code, rss_mb = run_exe(args + list(extra))
    if not trace:
        setups.append(raw["metrics"]["setup_s"])
        for _ in range(SETUPS - 1 - SETUPS // 2):
            setup_only()
        raw["samples"]["setup_s"] = setups
        raw["metrics"]["setup_s"] = statistics.median(setups)
    problems = list(raw["violations"])
    if code != 0:
        problems.append("benchmark program exited %d" % code)
    expected = load_digests().get(workload, {}).get(
        digest_key(raw["seed"], raw["seconds"]))
    if expected is not None and raw["digest"] != expected:
        problems.append("simulated-statistics digest %s != recorded %s"
                        % (raw["digest"], expected))
    correct = not problems
    attempted = max(1, int(raw["units"]))
    values = dict(raw["metrics"], rss_peak_mb=rss_mb)
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("program did not report " + ", ".join(missing), 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }
    raw["rss_peak_mb"] = rss_mb
    raw["problems"] = problems
    return result, raw


def cmd_run(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": "10",
            "--trace": "0"}
    extra = []
    i = 0
    while i < len(argv):
        if argv[i] in opts and i + 1 < len(argv):
            opts[argv[i]] = argv[i + 1]
            i += 2
        elif argv[i] == "--inject-fault" and i + 1 < len(argv):
            extra += argv[i:i + 2]
            i += 2
        else:
            fail("unknown argument %r" % argv[i])
    if opts["--workload"] not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    build()
    seed = None if opts["--seed"] is None else int(opts["--seed"])
    result, raw = run_workload(opts["--workload"], seed,
                               int(opts["--seconds"]), int(opts["--trace"]),
                               extra)
    for p in raw["problems"]:
        print("perfbench: check failed: " + p, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def host_info():
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": out(["git", "rev-parse", "HEAD"]),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def spread(values):
    """Quartiles and (Q3 - Q1) / median, as the acceptance check takes them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def cmd_sweep(argv):
    opts = {"--runs": "10", "--out": None, "--workloads": ",".join(WORKLOADS),
            "--seed0": "1000", "--seconds": "10", "--trace": "0"}
    for i in range(0, len(argv), 2):
        if argv[i] not in opts or i + 1 >= len(argv):
            fail("unknown sweep argument %r" % argv[i])
        opts[argv[i]] = argv[i + 1]
    if not opts["--out"]:
        fail("sweep needs --out FILE")
    build()
    trace = int(opts["--trace"])
    doc = dict(host_info(), seconds=int(opts["--seconds"]), trace=trace,
               runs={})
    for w in opts["--workloads"].split(","):
        runs = []
        for r in range(int(opts["--runs"])):
            seed = int(opts["--seed0"]) + r
            result, raw = run_workload(w, seed, int(opts["--seconds"]), trace)
            runs.append({"seed": seed, "result": result, "raw": raw})
            if not result["correct"]:
                print("%s seed %d: %s" % (w, seed, raw["problems"]),
                      file=sys.stderr)
        doc["runs"][w] = runs
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3, s = spread(vals)
            print("%-17s %-34s median %-14.6g IQR/median %.4f"
                  % (w, name, med, s))
    with open(opts["--out"], "w") as f:
        json.dump(doc, f, indent=1)
    return 0


def quartiles(values):
    q1, med, q3, _ = spread(values)
    return "%.4g [%.4g,%.4g]" % (med, q1, q3)


def verdict(old, new, bound, better):
    """better / worse / unresolved / within-bound, per choosing-metrics §6."""
    _, omed, _, ospread = spread(old)
    _, nmed, _, nspread = spread(new)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (nmed - omed) / omed if omed else 0.0
    if all(sign * n > sign * o for n in new for o in old):
        return "better", change
    if all(sign * n < sign * o for n in new for o in old):
        return "worse", change
    if max(ospread, nspread) > bound:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > ospread:
        return "better", change
    return "within-bound", change


def cmd_compare(argv):
    if len(argv) != 2:
        fail("usage: compare OLD NEW")
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    old, new = docs
    for key in ("commit", "cpu_model", "nproc", "ocaml", "seconds"):
        mark = "" if old.get(key) == new.get(key) else "   <- differs"
        print("%-10s %s | %s%s" % (key, old.get(key), new.get(key), mark))
    print("%-17s %-13s %26s %26s %6s %8s  %s" % (
        "workload", "metric", "old median [q1,q3]", "new median [q1,q3]",
        "bound", "change", "verdict"))
    worse = False
    for w in old["runs"]:
        if w not in new["runs"]:
            continue
        for name, m in bounds.items():
            vals = [[r["result"]["metrics"][name]["value"]
                     for r in d["runs"][w]
                     if name in r["result"]["metrics"]] for d in (old, new)]
            if not vals[0] or not vals[1]:
                continue
            v, change = verdict(vals[0], vals[1], m["bound"], m["better"])
            worse |= v == "worse"
            print("%-17s %-13s %26s %26s %6.3f %+7.1f%%  %s" % (
                w, name, quartiles(vals[0]), quartiles(vals[1]), m["bound"],
                100 * change, v))
    return 1 if worse else 0


def cmd_selftest(argv):
    build()
    ok = True
    raw, code, _ = run_exe(["--selftest"])
    print("service equivalence with Service.run: %s"
          % ("ok" if code == 0 else raw["violations"]))
    ok &= code == 0
    for fault in ("digest", "audit"):
        result, raw = run_workload("service-overload", 94, 1, 0,
                                   ["--inject-fault", fault])
        marked = (not result["correct"]
                  and result["failed"] == result["attempted"])
        print("injected %s fault marks the run failed: %s" % (fault, marked))
        ok &= marked
    return 0 if ok else 1


def cmd_record_digests(argv):
    if argv:
        fail("record-digests takes no arguments")
    build()
    digests = {}
    for w in WORKLOADS:
        digests[w] = {}
        for seconds in (1, 10):
            raw, code, _ = run_exe(["--workload", w, "--seconds", str(seconds)])
            if code != 0 or raw["violations"]:
                fail("%s: checks failed: %s" % (w, raw["violations"]), 1)
            digests[w][digest_key(raw["seed"], seconds)] = raw["digest"]
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    argv = sys.argv[1:]
    commands = {"sweep": cmd_sweep, "compare": cmd_compare,
                "selftest": cmd_selftest, "record-digests": cmd_record_digests}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
