#!/usr/bin/env python3
"""Build and run the rSLPA benchmark.

    python3 perfbench/run.py --workload stream-b100 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run compiles the repository's
main sources together with the benchmark (perfbench/build.sbt) with sbt;
later runs reuse the build until a source file changes. The benchmark's
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is non-zero when an
output check fails or the run cannot start.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPO_SOURCES = os.path.join(ROOT, "src", "main", "scala")
OUT = os.path.join(HERE, "out")
CLASSPATH = os.path.join(HERE, "target", "classpath.txt")
WORKLOADS = ("stream-b100", "stream-b800")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def newest_source_mtime():
    newest = 0.0
    for top in (REPO_SOURCES, os.path.join(HERE, "src"), os.path.join(HERE, "build.sbt"),
                os.path.join(HERE, "project", "build.properties")):
        paths = [top] if os.path.isfile(top) else (
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            newest = max(newest, os.path.getmtime(p))
    return newest


def run_child(cmd, timeout, **kw):
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Compile with sbt and record the runtime classpath."""
    if os.path.exists(CLASSPATH) and os.path.getmtime(CLASSPATH) >= newest_source_mtime():
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    try:
        code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "classes" not in lines[-1]:
        fail(f"build failed (sbt exit {code})")
    os.makedirs(os.path.dirname(CLASSPATH), exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if not os.path.isdir(REPO_SOURCES):
        fail(f"no program sources at {os.path.relpath(REPO_SOURCES, ROOT)}; run from a full checkout")
    build()
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    cmd = (["java", "-Xms2g", "-Xmx2g", f"-Djava.io.tmpdir={tmp}", "-Dspark.callstack.depth=200"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS]
           + ["-cp", cp, "rbench.Main", "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", a.trace, "--out", OUT, "--commit", commit()])
    try:
        code, _ = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
