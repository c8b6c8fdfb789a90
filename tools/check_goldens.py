#!/usr/bin/env python3
"""Byte-compare the QUICK --json export of every fast paper bench against
its committed SHA-256 (tests/goldens/quick_exports.sha256).

Usage: tools/check_goldens.py [BUILD_DIR]      (default: ./build)

Each bench listed in the golden file runs once as
`NETSTORE_QUICK=1 BUILD_DIR/bench/<bench> --json <tmp>`; the export's
SHA-256 must equal the committed digest.  The exports are deterministic
(virtual time only, no host clock), so any difference is a change in what
the simulation computed.  On a mismatch the script prints the actual
digests in the golden file's own format, so a deliberate behaviour change
is re-blessed by pasting them over the stale lines.  Exit status: 0 when
every digest matches, 1 otherwise.
"""
import concurrent.futures
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(ROOT, "tests", "goldens", "quick_exports.sha256")


def load_goldens():
    goldens = []
    with open(GOLDENS) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            digest, bench = line.split()
            goldens.append((bench, digest))
    return goldens


def run_bench(bench_dir, out_dir, bench):
    exe = os.path.join(bench_dir, bench)
    out = os.path.join(out_dir, bench + ".json")
    env = dict(os.environ, NETSTORE_QUICK="1")
    for var in ("NETSTORE_NO_FORK", "NETSTORE_POOL_STATS"):
        env.pop(var, None)
    proc = subprocess.run([exe, "--json", out], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip())
    with open(out, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest(), None


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    build = sys.argv[1] if len(sys.argv) == 2 else "build"
    bench_dir = os.path.join(build, "bench")
    goldens = load_goldens()
    workers = max(1, min(4, os.cpu_count() or 1))
    failed = []
    with tempfile.TemporaryDirectory() as out_dir, \
            concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = {bench: pool.submit(run_bench, bench_dir, out_dir, bench)
                   for bench, _ in goldens}
        for bench, want in goldens:
            got, err = futures[bench].result()
            if err is not None:
                print("FAIL %s: %s" % (bench, err))
                failed.append((bench, None))
            elif got != want:
                print("FAIL %s: sha256 %s, golden %s" % (bench, got, want))
                failed.append((bench, got))
            else:
                print("ok   %s" % bench)
    if failed:
        print("\nactual digests (golden-file format):")
        for bench, got in failed:
            print("%s  %s" % (got or "<no export>", bench))
        return 1
    print("all %d exports match their goldens" % len(goldens))
    return 0


if __name__ == "__main__":
    sys.exit(main())
