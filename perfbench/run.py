#!/usr/bin/env python3
"""Build and run the host-and-virtual-time benchmark.

    python3 perfbench/run.py --workload migrate|cache|lossy|pipeline \
        [--seed N] [--seconds S] [--trace 0|1] [--build-type TYPE]

Run from the root of a checkout. The driver (perfbench/driver.cpp) is built
with CMake from perfbench/CMakeLists.txt, which compiles the simulator from
the checkout's src/ exactly as the tier-1 build does (RelWithDebInfo, -O2,
unless --build-type says otherwise). The build tree goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout; traced runs
leave their spans there too, under runs/.

Everything the driver prints is passed through; its last stdout line is the
result JSON. Build output goes to stderr.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("migrate", "cache", "lossy", "pipeline")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def out_dir():
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return out if out.is_absolute() else ROOT / out


def revision():
    """The git commit when there is one, and always a digest of the sources
    the driver is built from, so a result names its code either way."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    rev = f"src-sha256:{h.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = f"git:{git.stdout.strip()} {rev}"
    return rev


def build(build_type):
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full "
             "checkout")
    bdir = out_dir() / f"perfbench-{build_type}"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={build_type}"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return bdir / "perfbench_driver"


def driver_args(args):
    """The driver's command line for one run (without the binary)."""
    runs = out_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    argv = [f"--workload={args.workload}", f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--trace={args.trace}",
            f"--tmp={out_dir() / 'tmp'}", f"--revision={revision()}"]
    if args.trace == 1:
        argv.append(f"--spans-out={runs / f'{args.workload}-seed{args.seed}.json'}")
    return argv


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-type", default="RelWithDebInfo")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse(argv)
    driver = build(args.build_type)
    sys.stdout.flush()
    r = subprocess.run([str(driver), *driver_args(args)])
    return r.returncode if r.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
