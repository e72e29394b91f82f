#!/usr/bin/env python3
"""Which src/ lines and functions do the programs actually run?

Builds the program targets with `--coverage` into BUILD_DIR (never the
repository's own build/), runs the program set below on it, merges
`gcov --json-format` output across translation units, and prints

  * the src/ lines gcov instruments and how many of them executed, per file
    and in total;
  * the src/ functions (by source location) that no program entered.

It is a report, not a gate: before deleting "code the grid never runs",
read the list against the error paths, test oracles, debug printers and
paths that longer runs reach. perfbench builds src/ on its own and is not
run here, and a member it calls is used: a listed function whose name (and
class, for a member) appear in perfbench/src is marked `[perfbench?]` —
a textual hint to check by hand.

The program set: grid_cli on every overlay x discovery backend with churn,
recovery, retries, faults, replication and every observability artifact;
the paper's 10^4-peer / 1000 req/min cell and a 10^5-peer churn cell; the
four scripted examples; `paper --scale=0.03`; bench_scaling_curve; and
bench_obs_overhead. bench_scaling_curve runs each cell in a forked child
that leaves through _exit(), which writes no coverage data, so only its
parent process (flag parsing, validation, the report) is counted and its
cells are kept small.

Usage:
  python3 tools/program_coverage.py --build-dir /tmp/qsa-cov

A first run configures and builds; later runs rebuild what changed and
reset the counters before running the programs. It builds with 4 jobs;
about 5 min on 4 vCPUs.
"""

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["grid_cli", "quickstart", "media_streaming", "content_retrieval",
           "churn_resilience", "paper", "bench_scaling_curve",
           "bench_obs_overhead"]


def program_runs(build):
    """The argv of every run in the program set (run in a scratch dir)."""
    ex = os.path.join(build, "examples")
    bench = os.path.join(build, "bench")
    cli = os.path.join(ex, "grid_cli")
    runs = []
    for overlay in ("chord", "can", "pastry"):
        for discovery in ("directory", "dht"):
            metrics = "m.csv" if discovery == "dht" else "m.json"
            runs.append([cli, f"--overlay={overlay}",
                         f"--discovery={discovery}", "--peers=300",
                         "--rate=30", "--minutes=20", "--churn=6",
                         "--recovery", "--retries=1", "--fault-loss=0.05",
                         "--fault-delay-ms=50", "--replication",
                         "--discovery-cache-ttl=120", "--trace-sample=2",
                         "--flight-recorder=4", "--obs-window-ms=120000",
                         "--trace-out=t.jsonl", "--series-out=s.csv",
                         "--flight-out=f.jsonl", f"--metrics-out={metrics}",
                         "--profile", "--csv", "--seed=7"])
    runs.append([cli, "--algorithm=random", "--track-load", "--peers=300",
                 "--rate=30", "--minutes=20", "--churn=6"])
    runs.append([cli, "--algorithm=fixed", "--no-compose-cache",
                 "--peers=300", "--rate=30", "--minutes=20"])
    # The benchmark's two grid points (perfbench grid_paper, grid_maint).
    runs.append([cli, "--peers=10000", "--rate=1000", "--minutes=5"])
    runs.append([cli, "--peers=100000", "--net-model=coords", "--rate=100",
                 "--churn=1000", "--minutes=10"])
    for name in ("quickstart", "media_streaming", "content_retrieval",
                 "churn_resilience"):
        runs.append([os.path.join(ex, name)])
    runs.append([os.path.join(bench, "paper"), "--scale=0.03",
                 "--metrics-out=paper.json"])
    runs.append([os.path.join(bench, "bench_scaling_curve"),
                 "--ns=1000,10000", "--minutes=1", "--json-out=scaling.json"])
    runs.append([os.path.join(bench, "bench_obs_overhead"), "--scale=0.05",
                 "--json-out=obs.json"])
    return runs


def run(cmd, **kw):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, **kw)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", REPO, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=--coverage",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"],
            stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", "4", "--target"] +
        TARGETS, stdout=subprocess.DEVNULL)


def object_files(build_dir, ext):
    src_objects = os.path.join(build_dir, "src")
    for root, _, files in os.walk(src_objects):
        for f in files:
            if f.endswith(ext):
                yield os.path.join(root, f)


def merge_gcov(build_dir):
    """(file, line) -> count and (file, start_line) -> (name, count),
    summed over every translation unit, for files under src/."""
    src = os.path.join(REPO, "src") + os.sep
    lines = collections.Counter()
    functions = {}
    notes = sorted(object_files(build_dir, ".gcno"))
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(0, len(notes), 32):
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout"] + notes[i:i + 32],
                cwd=tmp, check=True, capture_output=True, text=True).stdout
            for doc in out.splitlines():
                if not doc.strip():
                    continue
                data = json.loads(doc)
                cwd = data.get("current_working_directory", "")
                for f in data["files"]:
                    path = os.path.normpath(os.path.join(cwd, f["file"]))
                    if not path.startswith(src):
                        continue
                    rel = os.path.relpath(path, REPO)
                    for ln in f["lines"]:
                        lines[(rel, ln["line_number"])] += ln["count"]
                    for fn in f["functions"]:
                        key = (rel, fn["start_line"])
                        name, count = functions.get(
                            key, (fn["demangled_name"], 0))
                        functions[key] = (name, count + fn["execution_count"])
    return lines, functions


def perfbench_text():
    pdir = os.path.join(REPO, "perfbench", "src")
    text = []
    for f in sorted(os.listdir(pdir)):
        with open(os.path.join(pdir, f), encoding="utf-8") as fh:
            text.append(fh.read())
    return "\n".join(text)


def perfbench_may_call(demangled, text):
    """True when perfbench/src names the function: `member(` plus, for a
    member of a class (a capitalised scope), the class name."""
    head = re.sub(r"<.*>", "", demangled.split("(", 1)[0])
    scopes = head.split("::")
    if not re.search(r"\b" + re.escape(scopes[-1]) + r"\s*\(", text):
        return False
    owner = scopes[-2] if len(scopes) > 1 else ""
    return not owner[:1].isupper() or re.search(r"\b" + owner + r"\b", text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", required=True,
                        help="coverage build tree (created if missing)")
    args = parser.parse_args()

    build_dir = os.path.abspath(args.build_dir)
    if build_dir == os.path.join(REPO, "build"):
        sys.exit("program_coverage.py: use a build dir other than build/")
    build(build_dir)
    for data in object_files(build_dir, ".gcda"):
        os.remove(data)

    work = os.path.join(build_dir, "coverage_runs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for cmd in program_runs(build_dir):
        run(cmd, cwd=work, stdout=subprocess.DEVNULL)

    lines, functions = merge_gcov(build_dir)
    per_file = collections.defaultdict(lambda: [0, 0])
    for (rel, _), count in lines.items():
        per_file[rel][0] += 1
        per_file[rel][1] += count > 0
    total = sum(v[0] for v in per_file.values())
    executed = sum(v[1] for v in per_file.values())

    print(f"{'file':<44} {'lines':>6} {'run':>6} {'never':>6}")
    for rel in sorted(per_file):
        n, hit = per_file[rel]
        if n > hit:
            print(f"{rel:<44} {n:>6} {hit:>6} {n - hit:>6}")
    print(f"\nsrc/ lines instrumented: {total}, executed: {executed}, "
          f"never executed: {total - executed}")

    perfbench = perfbench_text()
    never = sorted((rel, line, name)
                   for (rel, line), (name, count) in functions.items()
                   if count == 0)
    print(f"src/ functions never entered: {len(never)} of {len(functions)}")
    for rel, line, name in never:
        mark = " [perfbench?]" if perfbench_may_call(name, perfbench) else ""
        print(f"  {rel}:{line} {name}{mark}")


if __name__ == "__main__":
    main()
