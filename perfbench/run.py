#!/usr/bin/env python3
"""Build and run the ISLA query benchmark.

    python3 perfbench/run.py --workload iid_normal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the benchmark and the
program under test from source with sbt (into perfbench/target and
.bench_build/); later runs reuse the build while no source has changed.
The last line of standard output is the result as one JSON object.

Extra options: --smoke runs the workload at its smoke size; --record FILE
appends the full result (with the INFO record) to FILE as one JSON line,
the input of perfbench/compare.py.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "main" / "scala"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("iid_normal", "skew_large", "noniid_b200")
HEAP = "2g"
RUN_TIMEOUT_S = 175

# Spark 4 on Java 17 needs these opened (as spark-submit passes them).
JVM_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-XX:+UseG1GC",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (HERE / "src", PROGRAM):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    return files


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def spark_home():
    """$SPARK_HOME, else the Spark distribution whose bin/ on PATH holds jars/."""
    if "SPARK_HOME" in os.environ:
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = pathlib.Path(d).resolve().parent
        if (pathlib.Path(d) / "spark-submit").exists() and any(home.glob("jars/spark-core_*.jar")):
            return str(home)
    die("SPARK_HOME is unset and no Spark distribution is on PATH")


def build_env():
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true -Dsbt.server.autostart=false").strip()
    return env


def classpath():
    """Build if any source changed since the last build; return the classpath."""
    if not PROGRAM.is_dir():
        die(f"program sources not found at {PROGRAM.relative_to(ROOT)}: run from the root of a checkout")
    stamp, cp_file = BUILD / "stamp", BUILD / "classpath.txt"
    want = digest(sources())
    if stamp.exists() and cp_file.exists() and stamp.read_text() == want:
        cp = cp_file.read_text().strip()
        if all(os.path.exists(p) for p in cp.split(os.pathsep)):
            return cp
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    print("perfbench: building (log in .bench_build/build.log)", file=sys.stderr)
    with open(log, "w") as out:
        done = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=build_env(), stdout=out, stderr=subprocess.STDOUT, timeout=800)
    lines = log.read_text().splitlines()
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        die("build failed", 3)
    cp = next((l for l in reversed(lines) if "scala-library" in l and not l.startswith("[")), None)
    if cp is None:
        die("build printed no classpath", 3)
    cp_file.write_text(cp)
    stamp.write_text(want)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true", help="run the workload at its smoke size")
    ap.add_argument("--record", help="append the full result to this file as one JSON line")
    a = ap.parse_args()

    cp = classpath()
    for d in ("spark-local", "tmp", "spans"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.smoke:
        args.append("--smoke")
    if a.trace == "1":
        args += ["--spans", str(BUILD / "spans" / f"{a.workload}-seed{a.seed}.jsonl")]
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", *JVM_FLAGS,
           f"-Djava.io.tmpdir={BUILD / 'tmp'}", f"-Dspark.local.dir={BUILD / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={BUILD / 'warehouse'}", "-Dspark.driver.host=127.0.0.1", "-cp", cp, "perfbench.Main", *args]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith("INFO ") and not line.startswith("{"):
                sys.stdout.write(line)
                sys.stdout.flush()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or not lines:
        die(f"benchmark exited with code {proc.returncode}", proc.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line", 1)
    info = next((json.loads(l[5:]) for l in lines if l.startswith("INFO ")), {})
    print(f"# info: {json.dumps(info)}")
    if a.record:
        with open(a.record, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed, "trace": int(a.trace),
                                "seconds": a.seconds, "smoke": a.smoke, "info": info,
                                "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
