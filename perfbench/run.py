#!/usr/bin/env python3
"""Benchmark entry point for the dedup model store.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first run compiles the repository's main sources together with the
benchmark code in perfbench/ (an sbt build of its own) and caches the
classpath under perfbench/target; later runs start one JVM directly. The
last line of stdout is the result object; with --trace 1 the span trace is
also written to perfbench/out/.
"""
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
BUILD_FILES = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
CLASSPATH = os.path.join(BENCH, "target", "classpath.txt")
OUT = os.path.join(BENCH, "out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# A fixed young generation: with adaptive sizing the collector resized it
# differently from run to run, and churn's set-up took 13 or 26 young
# collections. The heap is touched at start-up, before anything is timed.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-Xmn768m", "-XX:-UseAdaptiveSizePolicy", "-XX:+AlwaysPreTouch",
            "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def newest_source_mtime():
    newest = max(os.path.getmtime(f) for f in BUILD_FILES)
    for top in SOURCES:
        for d, _, files in os.walk(top):
            for f in files:
                if f.endswith((".scala", ".java")):
                    newest = max(newest, os.path.getmtime(os.path.join(d, f)))
    return newest


def build():
    """Compile with sbt (offline) and cache the runtime classpath."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    env["SBT_OPTS"] += " -Dsbt.server.autostart=false"
    if "SPARK_HOME" not in env:
        # The Spark distribution whose spark-submit is on PATH and has jars/.
        homes = (os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(p, "spark-submit"))))
                 for p in env.get("PATH", "").split(os.pathsep) if os.path.isfile(os.path.join(p, "spark-submit")))
        home = next((h for h in homes if os.path.isdir(os.path.join(h, "jars"))), None)
        if home:
            env["SPARK_HOME"] = home
    t0 = time.time()
    try:
        proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                              cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or os.path.join(BENCH, "target") not in lines[-1]:
        sys.stderr.write(proc.stdout)
        die(f"build failed (sbt exit {proc.returncode})")
    os.makedirs(os.path.dirname(CLASSPATH), exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())
    print(f"perfbench: built in {time.time() - t0:.0f} s", file=sys.stderr)


def classpath():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        die(f"no repository sources under {ROOT}/src/main/scala; run from a full checkout")
    if not os.path.exists(CLASSPATH) or os.path.getmtime(CLASSPATH) < newest_source_mtime():
        build()
    with open(CLASSPATH) as f:
        return f.read().strip()


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}, \
        {w["name"] for w in spec["workloads"]}


def main(argv):
    if argv == ["--self-test"]:
        args, traced = argv, None
    else:
        opts = dict(zip(argv[0::2], argv[1::2]))
        if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
            die("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
        if opts["--trace"] not in ("0", "1"):
            die("--trace must be 0 or 1")
        traced = opts["--trace"] == "1"
        names, workloads = expected_metrics(traced)
        if opts["--workload"] not in workloads:
            die(f"unknown workload {opts['--workload']}; BENCHMARK.json has {sorted(workloads)}")
        args = argv + ["--out", OUT]
    cp = classpath()
    cmd = ["java"] + JVM_OPTS + ["-cp", cp, "repro.perfbench.Main"] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=None if traced is None else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.splitlines()
    if traced is None or proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    result = json.loads(lines[-1]) if lines else {}
    if set(result.get("metrics", {})) != names:
        print("\n".join(lines[:-1]))
        die(f"metrics {sorted(result.get('metrics', {}))} do not match BENCHMARK.json {sorted(names)}", 3)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
