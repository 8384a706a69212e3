#!/usr/bin/env python3
"""Build and run the repository benchmark (flowbench).

Run from the repository root:

    python3 flowbench/run.py --workload public_verify --seed 0 --seconds 30 --trace 0
    python3 flowbench/run.py --selftest      # arithmetic tests + --smoke on every workload

The benchmark is compiled from source (the library under src/ plus the
files in this directory) into $CARGO_TARGET_DIR/flowbench, or
.bench_build/flowbench when that is unset, then run with the given
arguments. Its last line of standard output is the JSON result; the
exit code is the benchmark's own.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"flowbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def provenance_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    if not (ROOT / ".git").exists():
        return source_digest()
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def source_digest():
    h = hashlib.sha256()
    for p in sorted(list((ROOT / "src").rglob("*")) + list(HERE.glob("*"))):
        if p.is_file():
            h.update(p.relative_to(ROOT).as_posix().encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not any((ROOT / "src").rglob("*.cpp")):
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "flowbench"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the benchmark's lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def main():
    args = sys.argv[1:]
    build_dir = build()
    if args == ["--selftest"]:
        rc = subprocess.run(["ctest", "--output-on-failure"], cwd=build_dir,
                            stdout=sys.stderr, stderr=sys.stderr).returncode
        sys.exit(rc)
    cmd = [str(build_dir / "flowbench")] + args + ["--commit", provenance_id()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
