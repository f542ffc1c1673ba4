#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <serve-disk|engine-mem|mutate-mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds the `xks` binary and the
benchmark from source (into $CARGO_TARGET_DIR, default `.bench_build`),
generates the workload's inputs in a separate process, then runs the
measurement with the seed. Everything it writes stays under the
checkout: generated inputs in `.perfbench/inputs/` (kept for the next
run of the same sources), indexes and other work files in
`.perfbench/run-<pid>/` (removed at the end), span traces of
`--trace 1` runs in `.perfbench/traces/`. The last line of standard
output is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-disk", "engine-mem", "mutate-mixed")
# The measurement itself must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def note(line):
    print("# " + line, flush=True)


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=True,
    )


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
    except (OSError, IndexError, subprocess.SubprocessError):
        return None


def source_digest(tops=("src", "crates")):
    """SHA-256 over the program's sources (and any other top-level
    directories named), which names the code measured when the checkout
    is not a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in tops:
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def generated_inputs(perfbench, workload):
    """The workload's inputs, generated once per version of the sources
    and kept in `.perfbench/inputs/`. The corpora are fixed, named inputs
    (the seed orders the work done on them), and generating serve-disk's
    takes about 9 s, a fifth of a run."""
    cache = os.path.join(ROOT, ".perfbench", "inputs")
    key = "%s-%s" % (workload, source_digest(("src", "crates", "perfbench/src")))
    final = os.path.join(cache, key)
    if os.path.isdir(final):
        return final
    tmp = "%s.tmp-%d" % (final, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        subprocess.run(
            [perfbench, "gen", "--workload", workload, "--dir", tmp],
            cwd=ROOT,
            check=True,
            timeout=RUN_TIMEOUT_S,
        )
        os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # Inputs of this workload from other versions of the sources.
    for name in os.listdir(cache):
        if name.startswith(workload + "-") and name != key:
            shutil.rmtree(os.path.join(cache, name), ignore_errors=True)
    return final


def filesystem_of(path):
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    needed = ("Cargo.toml", "Cargo.lock", "src/main.rs", "crates", "BENCHMARK.json")
    missing = [n for n in needed if not os.path.exists(os.path.join(ROOT, n))]
    if missing:
        print("perfbench: repository sources missing: " + ", ".join(missing), file=sys.stderr)
        return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        cargo_build(["--bin", "xks"], target)
        cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    perfbench = os.path.join(target, "release", "perfbench")
    xks = os.path.join(target, "release", "xks")

    run_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    work = os.path.join(run_dir, "work")
    os.makedirs(work, exist_ok=True)
    trace_out = os.path.join(ROOT, ".perfbench", "traces", f"{a.workload}-seed{a.seed}.json")
    commit = first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    note(
        "provenance: cpu_model=%s; rustc=%s; profile=release; commit=%s; source_digest=%s; "
        "work_fs=%s; seed=%d"
        % (
            cpu_model(),
            first_line(["rustc", "--version"]) or "unknown",
            commit or "none (not a git checkout)",
            source_digest(),
            filesystem_of(work),
            a.seed,
        )
    )
    try:
        inputs = generated_inputs(perfbench, a.workload)
        sys.stdout.flush()
        # Its own process group, so that a timeout also stops the server
        # it started.
        child = subprocess.Popen(
            [perfbench, "run", "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace), "--input", inputs,
             "--work", work, "--xks", xks, "--trace-out", trace_out],
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: the run timed out", file=sys.stderr)
            return 1
        finally:
            # Whatever ends the run (a timeout, a signal), nothing it
            # started outlives it: the run and the server it starts share
            # one process group.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def stop(signum, _frame):
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(main())
