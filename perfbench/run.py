#!/usr/bin/env python3
"""Layered CLUGP benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload uk-k256 --seed 1 --seconds 20 --trace 0

Builds the benchmark package in perfbench/ with sbt (offline; only when a
source file changed), then runs one workload in a fresh JVM. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The full report, with the environment, every sample count and
the spans of a traced run, is written to perfbench/target/work/reports/.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
WORK = os.path.join(TARGET, "work")
WORKLOADS = ("uk-k256", "it-k64", "twitter-k32")

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
HEAP = "3g"

# JDK 17 module opens that Spark needs (the list spark-submit injects).
SPARK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads from the repository, in a stable order."""
    files = [os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(HERE, "src"), PROGRAM_SOURCES):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith(".scala")]
    return files


def source_sha():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def spark_home():
    """The Spark distribution the build takes its jars from: SPARK_HOME, or
    the first directory on PATH holding spark-submit next to a jars/ folder."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(os.path.abspath(d))
        if os.path.isfile(os.path.join(d, "spark-submit")) and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("set SPARK_HOME to the Spark distribution")


def sbt_env():
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   f"-Dsbt.repository.config={repos} -Dsbt.offline=true -Xmx2g")
    return env


def build(sha):
    """Compiles the benchmark with the program's sources; returns the runtime
    classpath. Reuses the last build when no source changed."""
    stamp = os.path.join(TARGET, "classpath-" + sha)
    if os.path.exists(stamp):
        with open(stamp) as fh:
            return fh.read().strip()
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "export Runtime/fullClasspath"],
            cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout)
        fail(f"build failed (sbt exit code {out.returncode})")
    sys.stderr.write(out.stdout)
    classpath = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    for old in os.listdir(TARGET):
        if old.startswith("classpath-"):
            os.remove(os.path.join(TARGET, old))
    with open(stamp, "w") as fh:
        fh.write(classpath)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"the program's sources ({os.path.relpath(PROGRAM_SOURCES)}) are missing; "
             "run from a full checkout of the repository")
    sha = source_sha()
    classpath = build(sha)
    os.makedirs(WORK, exist_ok=True)
    # A fixed heap size keeps GC behaviour alike from run to run.
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={WORK}",
            f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceSha={sha}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in SPARK_OPENS]
           + ["-cp", classpath, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", WORK])
    # Spark takes its scratch directories from SPARK_LOCAL_DIRS when set.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    # Stop the JVM with us if we are told to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {proc.returncode}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
