#!/usr/bin/env python3
"""Builds the GRAFICS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-http --seed 1 --seconds 10 --trace 0

Run it from the repository root. The benchmark is a cargo package of its
own (`perfbench/Cargo.toml`) that depends on the repository's crates by
path; it is built in release mode, offline, into `$CARGO_TARGET_DIR`
(default `.bench_build`), with the repository's `.cargo/config.toml`
flags. Build output goes to standard error, so the last line of standard
output is the benchmark's result line. The exit code is the benchmark's,
or 1 when the build fails or the repository's crates are missing.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# The benchmark stops itself after its measured seconds plus set-up and
# training; the timeout allows that much beyond `--seconds` and only
# bounds a hung run.
SETUP_ALLOWANCE_S = 150


def target_dir() -> Path:
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def cargo() -> str:
    """`cargo` from PATH, else rustup's default install location."""
    return shutil.which("cargo") or os.path.expanduser("~/.cargo/bin/cargo")


def build(target: Path) -> bool:
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the repository's crates are missing; nothing to build", file=sys.stderr)
        return False
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        built = subprocess.run(
            [cargo(), "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            check=False,
        )
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False
    return built.returncode == 0


def run_timeout(argv: list) -> float:
    """`--seconds` plus the set-up allowance; the benchmark itself rejects
    a missing or malformed `--seconds`."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0.0
    return max(seconds, 0.0) + SETUP_ALLOWANCE_S


def main() -> int:
    target = target_dir()
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    timeout = run_timeout(sys.argv[1:])
    run = subprocess.Popen([str(binary), *sys.argv[1:]], cwd=ROOT)
    try:
        return run.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        run.kill()
        run.wait()
        print(f"perfbench: no result within {timeout:.0f} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
