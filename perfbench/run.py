#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the library and the benchmark from source (CMake, Release) under
$CARGO_TARGET_DIR or .bench_build, runs one workload and forwards its report.
The last line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("pingpong_conflict", "storm_incast", "replay_bigfft_1024")
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build() -> Path:
    """Configure once, then build incrementally; returns the binary path."""
    bdir = build_root() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    binary = bdir / "otm_perfbench"
    if not binary.exists():
        raise RuntimeError("benchmark binary missing after build")
    return binary


def code_version() -> str:
    """Git commit when the tree is a repository, else a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(binary: Path, args: list) -> tuple:
    """Run the benchmark binary; returns (report lines, parsed result)."""
    proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    return lines[:-1], result


def run(ns) -> int:
    binary = build()
    out_dir = build_root() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    args = ["--workload", ns.workload, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(ns.trace),
            "--out-dir", str(out_dir), "--git-commit", code_version()]
    report, result = run_binary(binary, args)
    for line in report:
        print(line)
    record = {"report": report, "result": result}
    name = f"result-{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


# ---- Self-test ---------------------------------------------------------------

MODELED = ("modeled_msg_rate", "modeled_latency_p50_ns", "modeled_latency_p99_ns")


def self_test() -> int:
    binary = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        print(f"  {what:<66} {'ok' if ok else 'FAILED'}", flush=True)
        failures += 0 if ok else 1

    proc = subprocess.run([str(binary), "--self-test"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    print(proc.stdout, end="")
    check(proc.returncode == 0, "binary self-test (span arithmetic, planted mismatch)")

    def tiny(workload: str, seed: int, trace: int) -> dict:
        _, res = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                     "--seconds", "0.5", "--trace", str(trace),
                                     "--tiny"])
        return res

    def format_ok(res: dict, metrics: list) -> bool:
        want = {m["name"]: m["unit"] for m in metrics}
        got = res["metrics"]
        return (set(got) == set(want)
                and all(got[n]["unit"] == u and isinstance(got[n]["value"], (int, float))
                        for n, u in want.items())
                and isinstance(res["attempted"], int) and res["attempted"] >= 1
                and isinstance(res["failed"], int))

    for w in WORKLOADS:
        print(f"self-test: {w}", flush=True)
        a = tiny(w, 7, 0)
        b = tiny(w, 7, 0)
        c = tiny(w, 8, 0)
        t = tiny(w, 7, 1)
        check(format_ok(a, spec["end_to_end"]), "untraced output matches BENCHMARK.json end_to_end")
        check(format_ok(t, spec["per_layer"]), "traced output matches BENCHMARK.json per_layer")
        check(all(r["correct"] and r["failed"] == 0 for r in (a, b, c, t)),
              "every run correct, ops_failed_ratio 0")
        va = [a["metrics"][m]["value"] for m in MODELED]
        vb = [b["metrics"][m]["value"] for m in MODELED]
        vc = [c["metrics"][m]["value"] for m in MODELED]
        check(va == vb, "modeled metrics bit-identical at one seed")
        check(va != vc, "modeled metrics change at another seed")
    print(f"self-test: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ns = ap.parse_args()
    try:
        if ns.self_test:
            return self_test()
        if ns.workload is None:
            ap.error("--workload is required")
        return run(ns)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
