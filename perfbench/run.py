#!/usr/bin/env python3
"""Build and run the dSSD host-time benchmark.

    python3 perfbench/run.py --workload <gc_write|host_read|serve_traced> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package in
perfbench/ with cargo (release, offline) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; prints one `host {...}` line identifying
the machine, toolchain and sources; then runs the benchmark binary with
the same arguments. The binary's last stdout line is the JSON result.
Build output goes to stderr. A failed build exits 1 and prints no result.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def sources_digest():
    """SHA-256 over the simulator's and the benchmark's sources, so
    results from a checkout without git history still name their code."""
    h = hashlib.sha256()
    files = [
        p
        for base in (ROOT / "crates", HERE)
        for p in base.rglob("*")
        if p.is_file() and p.suffix in (".rs", ".toml") and "target" not in p.parts
    ]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def capture(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def identity(argv):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    top = capture(["git", "rev-parse", "--show-toplevel"])
    rev = capture(["git", "rev-parse", "HEAD"]) if top and Path(top) == ROOT else None
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv[:-1] else None
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "rustc": capture(["rustc", "-V"]),
        "git_rev": rev or "none",
        "sources_sha256": sources_digest(),
        "seed": seed,
    }


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print("host " + json.dumps(identity(argv), sort_keys=True), flush=True)
    child = subprocess.Popen([str(target / "release" / "dssd-perfbench"), *argv], env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
