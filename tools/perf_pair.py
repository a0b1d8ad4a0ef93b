#!/usr/bin/env python3
"""Runs perfbench parent/change pairs and prints the EXPERIMENTS.md table.

Usage, from anywhere inside the repository:

    python3 tools/perf_pair.py --workloads ind-filter,anti-refine \
        --pairs 10 --seconds 20 [--parent REF] [--json out.json] \
        [--append BENCH_perfbench.json]

The change side is this checkout's working tree. The parent side is REF
(default: the merge base of HEAD with main), checked out with
`git worktree add` into a temporary directory and removed afterwards;
`--parent-dir DIR` uses an existing checkout instead and runs no git, so
both sides may be plain copies (e.g. from `git archive`); `--parent` then
only names it in the report. Each side builds perfbench under its own
CARGO_TARGET_DIR (perfbench/run.py's build directory) inside the work
directory.

For each workload, pair i (seeds 1..N) runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` on both
sides in ABBA order: the parent first in odd pairs, the change first in
even ones. The table then gives, for every end-to-end metric of
BENCHMARK.json, each side's median with its quartiles, the ratio of the
medians (change / parent) and the pairs the change won by the metric's
`better` direction. The per-pair `ops_per_s` ratios follow the table.
`--json FILE` writes the same figures as JSON. `--append FILE` appends one
entry to the JSON array in FILE (created when missing): the parent and
change labels, the seconds, the pair count, the machine (`env`: CPU
count, CPU model, the first line of `c++ --version` and the build type
perfbench/run.py configures) and, per workload, each side's medians of the
end-to-end metrics. A file of such entries is the benchmark's trajectory
across changes.

The exit code is non-zero when any run fails or reports a failed answer
check. `--self-check` runs the table code on canned result lines and
builds or runs nothing.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class RunFailed(Exception):
    pass


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def parse_result(line, where):
    """The metrics of one run.py result line; raises RunFailed on a failed
    run."""
    try:
        result = json.loads(line)
    except ValueError:
        raise RunFailed("%s: last output line is not JSON: %r" % (where, line))
    if not result.get("correct") or result.get("failed"):
        raise RunFailed("%s reported %s failed of %s operations" %
                        (where, result.get("failed"), result.get("attempted")))
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_once(side_root, build_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(side_root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side_root, env=env, stdout=subprocess.PIPE,
                          text=True)
    where = "%s seed %d (%s)" % (workload, seed, side_root)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed("%s exited with %d" % (where, proc.returncode))
    return parse_result(lines[-1], where)


def pair_order(i):
    """ABBA: the parent runs first in odd pairs (1-based)."""
    return SIDES if i % 2 == 1 else SIDES[::-1]


def summarize(values):
    """Median and quartiles; `values` stay in pair order."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": list(values)}


def fmt(x):
    """Three significant digits, at most 0 decimals from 1000 up."""
    if x == 0 or not math.isfinite(x):
        return "%g" % x
    decimals = max(0, 2 - int(math.floor(math.log10(abs(x)))))
    return "%.*f" % (decimals, x)


def compare(pairs, end_to_end):
    """Per-metric summary of `pairs`, a list of {side: metrics} dicts."""
    out = {}
    for m in end_to_end:
        name = m["name"]
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        lower = m["better"] == "lower"
        won = sum(1 for a, b in zip(par, chg) if (b < a if lower else b > a))
        ps, cs = summarize(par), summarize(chg)
        ratio = cs["median"] / ps["median"] if ps["median"] else float("nan")
        out[name] = {"unit": m["unit"], "better": m["better"], "parent": ps,
                     "change": cs, "ratio": ratio, "won": won}
    return out


def render(report):
    """The EXPERIMENTS.md table and the per-pair ops_per_s ratios."""
    lines = ["| workload (seeds) | metric | parent | change | ratio | won |",
             "|---|---|---|---|---|---|"]
    notes = []
    for workload, w in report["workloads"].items():
        n = len(w["seeds"])
        label = "%s (%d–%d)" % (workload, w["seeds"][0], w["seeds"][-1])
        for name, m in w["metrics"].items():
            unit = "" if m["unit"] == "1/s" else " " + m["unit"]
            cells = ["%s (%s–%s)%s" % (fmt(s["median"]), fmt(s["q1"]),
                                      fmt(s["q3"]), unit)
                     for s in (m["parent"], m["change"])]
            lines.append("| %s | `%s` | %s | %s | %.2f | %d/%d |" %
                         (label, name, cells[0], cells[1], m["ratio"],
                          m["won"], n))
            label = ""
        notes.append("%s `ops_per_s`, change ÷ parent per pair (seeds %d–%d): "
                     "%s." % (workload, w["seeds"][0], w["seeds"][-1],
                              ", ".join("%.2f" % r
                                        for r in w["ops_per_s_ratios"])))
    return "\n".join(lines) + "\n\n" + "\n".join(notes) + "\n"


def build_report(parent_ref, seconds, results, end_to_end):
    """`results`: {workload: [(seed, {side: metrics})]}."""
    report = {"parent": parent_ref, "seconds": seconds, "workloads": {}}
    for workload, rows in results.items():
        pairs = [sides for _, sides in rows]
        report["workloads"][workload] = {
            "seeds": [seed for seed, _ in rows],
            "metrics": compare(pairs, end_to_end),
            "ops_per_s_ratios": [p["change"]["ops_per_s"] /
                                 p["parent"]["ops_per_s"] for p in pairs],
        }
    return report


def first_match(path, pattern):
    """Group 1 of the first line of the file at `path` that matches
    `pattern`, or "unknown" when the file is unreadable or no line does."""
    try:
        with open(path) as f:
            m = re.search(pattern, f.read(), re.MULTILINE)
    except OSError:
        return "unknown"
    return m.group(1).strip() if m else "unknown"


def first_output_line(cmd):
    """The first stdout line of `cmd`, or "unknown" when it cannot run."""
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
    except OSError:
        return "unknown"
    return out.splitlines()[0].strip() if out.strip() else "unknown"


def environment(cpuinfo="/proc/cpuinfo", cxx="c++",
                run_py=os.path.join(ROOT, "perfbench", "run.py")):
    """The machine an --append entry was measured on."""
    return {"cpu_count": os.cpu_count(),
            "cpu_model": first_match(cpuinfo, r"^model name\s*:\s*(.+)$"),
            "compiler": first_output_line([cxx, "--version"]),
            "build_type": first_match(run_py, r"-DCMAKE_BUILD_TYPE=(\w+)")}


def trajectory_entry(report, change_label, env):
    """The --append record of `report`: the machine `env` and per-side
    medians only."""
    workloads = {}
    for workload, w in report["workloads"].items():
        workloads[workload] = {
            side: {name: m[side]["median"] for name, m in w["metrics"].items()}
            for side in SIDES}
    # Every workload runs the same seeds (a failed run aborts the report).
    pairs = len(next(iter(report["workloads"].values()))["seeds"])
    return {"parent": report["parent"], "change": change_label,
            "seconds": report["seconds"], "pairs": pairs, "env": env,
            "workloads": workloads}


def append_entry(path, entry):
    """Appends `entry` to the JSON array in `path`, creating the file."""
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f)
        if not isinstance(entries, list):
            raise ValueError("%s does not hold a JSON array" % path)
    entries.append(entry)
    with open(path, "w") as f:
        json.dump(entries, f, indent=2)
        f.write("\n")


def resolve_parent(args, work, run_git=None):
    """(parent checkout, worktree to remove or None, report label). Only a
    worktree needs a ref, so `--parent-dir` runs no git command and works
    from a change side that is not a git checkout; there `--parent`, when
    given, is only the label."""
    run_git = run_git or git
    if args.parent_dir:
        return (os.path.abspath(args.parent_dir), None,
                args.parent or args.parent_dir)
    parent_ref = args.parent or run_git("merge-base", "HEAD", "main")
    worktree = os.path.join(work, "parent")
    run_git("worktree", "add", "--detach", worktree, parent_ref)
    return worktree, worktree, parent_ref


def canned_line(setup, p50, p90, ops, rss, failed=0):
    names = (("setup_s", "s", setup), ("utk1_ms_p50", "ms", p50),
             ("utk1_ms_p90", "ms", p90), ("ops_per_s", "1/s", ops),
             ("peak_rss_mb", "MB", rss))
    return json.dumps({"correct": failed == 0, "attempted": 1000,
                       "failed": failed,
                       "metrics": {n: {"value": v, "unit": u}
                                   for n, u, v in names}})


def self_check(end_to_end):
    parent = [canned_line(0.20, 0.28, 0.54, 1000, 30.0),
              canned_line(0.22, 0.27, 0.50, 1100, 30.5),
              canned_line(0.24, 0.29, 0.58, 900, 31.0)]
    change = [canned_line(0.21, 0.20, 0.30, 1500, 30.0),
              canned_line(0.20, 0.21, 0.33, 1400, 30.5),
              canned_line(0.25, 0.19, 0.31, 1350, 30.9)]
    rows = [(i + 1, {"parent": parse_result(a, "parent"),
                     "change": parse_result(b, "change")})
            for i, (a, b) in enumerate(zip(parent, change))]
    report = build_report("canned", 20, {"ind-filter": rows}, end_to_end)
    text = render(report)
    m = report["workloads"]["ind-filter"]["metrics"]
    checks = [
        (m["ops_per_s"]["parent"]["median"] == 1000, "parent median"),
        (m["ops_per_s"]["change"]["median"] == 1400, "change median"),
        (m["ops_per_s"]["won"] == 3, "ops_per_s wins (higher is better)"),
        (m["utk1_ms_p50"]["won"] == 3, "p50 wins (lower is better)"),
        (m["setup_s"]["won"] == 1, "setup_s wins"),
        (m["peak_rss_mb"]["won"] == 1, "ties are not wins"),
        (abs(m["ops_per_s"]["ratio"] - 1.4) < 1e-12, "ratio of medians"),
        (m["ops_per_s"]["parent"]["q1"] == 950, "inclusive lower quartile"),
        ("| ind-filter (1–3) | `setup_s` | 0.220 (0.210–0.230) s | "
         "0.210 (0.205–0.230) s | 0.95 | 1/3 |" in text, "first row"),
        ("|  | `ops_per_s` | 1000 (950–1050) | 1400 (1375–1450) | 1.40 | "
         "3/3 |" in text, "unitless row"),
        ("|  | `utk1_ms_p50` | 0.280 (0.275–0.285) ms | "
         "0.200 (0.195–0.205) ms | 0.71 | 3/3 |" in text, "follow-on row"),
        ("(seeds 1–3): 1.50, 1.27, 1.50." in text, "per-pair ratios"),
        ([pair_order(i)[0] for i in (1, 2, 3, 4)] ==
         ["parent", "change", "parent", "change"], "ABBA order"),
    ]
    try:
        parse_result(canned_line(0.2, 0.2, 0.3, 1000, 30, failed=1), "bad")
        checks.append((False, "a failed run is rejected"))
    except RunFailed:
        pass
    git_calls = []

    def fake_git(*args):
        git_calls.append(args)
        return "abc123"

    given = argparse.Namespace(parent=None, parent_dir="/p")
    checks.append((resolve_parent(given, "/w", fake_git) ==
                   (os.path.abspath("/p"), None, "/p") and not git_calls,
                   "--parent-dir runs no git"))
    given = argparse.Namespace(parent="2db9582", parent_dir="/p")
    checks.append((resolve_parent(given, "/w", fake_git)[2] == "2db9582" and
                   not git_calls, "--parent labels a --parent-dir"))
    given = argparse.Namespace(parent=None, parent_dir=None)
    checks.append((resolve_parent(given, "/w", fake_git) ==
                   ("/w/parent", "/w/parent", "abc123") and
                   [c[0] for c in git_calls] == ["merge-base", "worktree"],
                   "a worktree resolves the merge base"))
    with tempfile.TemporaryDirectory() as tmp:
        cpuinfo = os.path.join(tmp, "cpuinfo")
        run_py = os.path.join(tmp, "run.py")
        with open(cpuinfo, "w") as f:
            f.write("processor\t: 0\nmodel name\t: Canned CPU @ 2.00GHz\n"
                    "processor\t: 1\nmodel name\t: Canned CPU @ 2.00GHz\n")
        with open(run_py, "w") as f:
            f.write('cfg = ["cmake", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]\n')
        env = environment(cpuinfo, sys.executable, run_py)
        missing = os.path.join(tmp, "missing")
        checks += [
            (env["cpu_count"] == os.cpu_count(), "env CPU count"),
            (env["cpu_model"] == "Canned CPU @ 2.00GHz", "env CPU model"),
            (env["compiler"].startswith("Python 3"),
             "env first line of --version"),
            (env["build_type"] == "RelWithDebInfo", "env build type"),
            (environment(missing, missing, missing) ==
             dict(env, cpu_model="unknown", compiler="unknown",
                  build_type="unknown"), "env without its sources"),
            (environment()["build_type"] == "Release",
             "env reads perfbench/run.py's build type"),
        ]
        path = os.path.join(tmp, "trajectory.json")
        append_entry(path, trajectory_entry(report, "change-a", env))
        append_entry(path, trajectory_entry(report, "change-b", env))
        with open(path) as f:
            entries = json.load(f)
        first = entries[0]
        checks += [
            ([e["change"] for e in entries] == ["change-a", "change-b"],
             "--append keeps earlier entries"),
            ((first["parent"], first["seconds"], first["pairs"]) ==
             ("canned", 20, 3), "--append labels, seconds and pairs"),
            (first["workloads"]["ind-filter"]["parent"]["ops_per_s"] == 1000
             and first["workloads"]["ind-filter"]["change"]["utk1_ms_p90"]
             == 0.31, "--append per-side medians"),
            (first["env"] == env, "--append records the machine"),
            (sorted(first["workloads"]["ind-filter"]["change"]) ==
             sorted(m["name"] for m in end_to_end),
             "--append has every end-to-end metric"),
        ]
        with open(path, "w") as f:
            f.write("{}")
        try:
            append_entry(path, first)
            checks.append((False, "--append rejects a non-array file"))
        except ValueError:
            pass
    bad = [what for ok, what in checks if not ok]
    if bad:
        sys.stdout.write(text)
        print("perf_pair self-check FAILED: " + ", ".join(bad))
        return 1
    print("perf_pair self-check passed (%d checks)" % (len(checks) + 1))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="parent ref (default: merge base with "
                    "main); with --parent-dir, only its label")
    ap.add_argument("--parent-dir", help="an existing parent checkout to use "
                    "instead of a temporary worktree")
    ap.add_argument("--workloads", default="ind-filter,anti-refine,serve-live")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--work-dir", help="build directories (and the parent "
                    "worktree) go here; default: a temporary directory")
    ap.add_argument("--json", help="also write the figures to this file")
    ap.add_argument("--append", metavar="FILE", help="append the per-side "
                    "medians to the JSON array in FILE")
    ap.add_argument("--change-label", default="working tree",
                    help="the change side's name in --append entries")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    if args.self_check:
        return self_check(end_to_end)

    work = args.work_dir or tempfile.mkdtemp(prefix="perf_pair-")
    os.makedirs(work, exist_ok=True)
    parent_root, worktree, parent_label = resolve_parent(args, work)
    roots = {"parent": parent_root, "change": ROOT}
    builds = {s: os.path.join(os.path.abspath(work), "build-" + s)
              for s in SIDES}
    results = {}
    try:
        for workload in args.workloads.split(","):
            rows = results.setdefault(workload, [])
            for seed in range(1, args.pairs + 1):
                sides = {}
                for side in pair_order(seed):
                    sides[side] = run_once(roots[side], builds[side], workload,
                                           seed, args.seconds)
                rows.append((seed, sides))
                print("%s pair %d: ops_per_s parent %.1f change %.1f" %
                      (workload, seed, sides["parent"]["ops_per_s"],
                       sides["change"]["ops_per_s"]), file=sys.stderr)
    except RunFailed as e:
        print("perf_pair: " + str(e), file=sys.stderr)
        return 1
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", worktree)
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)

    report = build_report(parent_label, args.seconds, results, end_to_end)
    sys.stdout.write(render(report))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    if args.append:
        append_entry(args.append, trajectory_entry(report, args.change_label,
                                                   environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
