#!/usr/bin/env python3
"""End-to-end benchmark of the interscatter library.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark binary from source (CMake, Release)
into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs one
workload and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (BENCHMARK.json says why each is there):
  per_dsss_2m         core::per_vs_snr, 802.11b 2 Mbps, 31-byte PSDU, 1 thread
  uplink_backscatter  BLE -> 11 Mbps Wi-Fi (simulate_frame, implant preset)
                      and BLE -> ZigBee backscatter frames, 1 thread
  fleet_1m_faults     1M-tag ward fleet, intensity-1 faults, ARQ + fallback +
                      failover, min(nproc, 4) threads

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced replay
and reports every per-layer metric (layer_map.json says which end-to-end
metric each one should move), writing its spans to .bench_out/.
failed / attempted is the error rate: items whose operation threw or failed
a check. --smoke and --inject <check> are for test_e2e.py.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("per_dsss_2m", "uplink_backscatter", "fleet_1m_faults")
# Fresh processes timed per run for the waveform workloads' set-up metric.
SETUP_PROBES = 9
RUN_LIMIT_S = 175.0


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"library sources not found under {ROOT}")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "e2ebench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(bdir), "--target", "itb_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    return bdir / "itb_e2e"


def last_json(cmd, deadline):
    """Runs the binary to completion and parses its last stdout line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd[1:]} printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject", choices=("replay_seed", "thread_digest", "conservation"))
    args = ap.parse_args()

    exe = build()
    if exe is None or not exe.is_file():
        log("build failed")
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    base = [str(exe), "--workload", args.workload, "--seed", str(args.seed)]
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        result = last_json(cmd, deadline)
        if args.trace == 0 and args.workload != "fleet_1m_faults":
            # Set-up is the first item in a fresh process; the median over
            # several processes keeps one slow start from setting the figure.
            probes = [last_json(base + ["--probe-setup"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result["metrics"]["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
