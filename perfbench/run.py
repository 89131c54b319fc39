#!/usr/bin/env python3
"""Build and run the rasc host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload
    python3 perfbench/run.py --selftest   # test_steadiness.py + perfbench_selftest

Builds perfbench/ (which compiles the rasc libraries from src/) into
perfbench/<hash of this checkout>/ under $CARGO_TARGET_DIR or .bench_build/,
runs the benchmark program, and checks that its last output line is the
result object with exactly the metrics BENCHMARK.json declares.  The traced run writes its spans to
.bench_out/trace-<workload>-<seed>.json.  Build output goes to stderr.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message, code=3):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # One build tree per checkout: a shared absolute CARGO_TARGET_DIR must
    # not let one checkout run the other's binary.
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench" / hashlib.sha1(str(HERE).encode()).hexdigest()[:12]


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"rasc sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / target


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if argv[:1] == ["--all"]:
        # Every workload, each in its own process, untraced.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rest = dict(zip(argv[1::2], argv[2::2]))
        codes = []
        for workload in spec["workloads"]:
            print(f"== {workload['name']}: {workload['why']}", flush=True)
            codes.append(main(["--workload", workload["name"], "--seed", rest.get("--seed", "1"),
                               "--seconds", rest.get("--seconds", str(spec["run_seconds"])),
                               "--trace", "0"]))
        return max(codes)
    if argv == ["--selftest"]:
        codes = [subprocess.run([sys.executable, str(HERE / "test_steadiness.py")]).returncode,
                 subprocess.run([str(build("perfbench_selftest"))], cwd=ROOT).returncode]
        return max(codes)
    opts = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= opts.keys():
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1", 2)
    binary = build("perfbench")
    args = [str(binary), *argv, "--fingerprints", str(HERE / "fingerprints.txt")]
    if opts["--trace"] == "1":
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{opts['--workload']}-{opts['--seed']}.json"
        args += ["--trace-out", str(trace_file)]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        return proc.returncode or 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark program's last line is not a JSON object")
    want = declared_metrics(opts["--trace"] == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}", 4)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
