#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `pathcover-cli` (the repository workspace) and `perfbench` (this
directory's own package) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs `perfbench` with the given arguments.
Run artifacts (daemon logs, unix sockets, Chrome traces) go to
`.bench_run/`. Build output goes to stderr; stdout carries only the
benchmark's report, whose last line is the JSON summary.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish (or be stopped) well inside three minutes.
RUN_TIMEOUT_S = 170


def build(env):
    steps = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "pcservice", "--bin", "pathcover-cli"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench"],
    ]
    for args in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        result = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
        if result.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def describe_source():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "shims"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the repository root; nothing to build")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    env["PERFBENCH_COMMIT"] = describe_source()
    env["PERFBENCH_RUSTC"] = rustc_version()
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--cli", os.path.join(target, "release", "pathcover-cli"),
        # Relative to ROOT (the working directory of the run): unix socket
        # paths are capped at 108 bytes, and a checkout path can be long.
        "--out", ".bench_run",
    ]
    # A session of its own, so a hung run can be stopped with its daemon.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
