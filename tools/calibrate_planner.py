#!/usr/bin/env python3
"""Offline cost-model calibration for the query planner.

Fits per-algorithm linear cost models over the planner feature vector
(src/api/planner.cc PlannerFeatures — the two implementations MUST stay in
lockstep; tests/test_planner.cc pins the C++ side, this file mirrors it):

  f0 = 1
  f1 = n / 1000
  f2 = band / 1000      band = trunc(clamp(k * ln(n+1)^(pref_dim-1),
                                           [min(k, n), n]))
  f3 = f2 * k
  f4 = f2^2 * region_width

against measured elapsed_ms, by *non-negative* ridge-regularized weighted
least squares (each row weighted by 1/max(y, 0.1)^1.5; normal equations,
Gaussian elimination — stdlib only, no numpy). The near-relative weighting
matters: one algorithm's rows span 1 ms to tens of seconds across the
sweep, and an unweighted fit chases the big rows while predicting nonsense
(negative, clamped-to-zero costs) at the small end — which is exactly
where the planner has to rank algorithms correctly. The non-negativity
matters because every feature is a work proxy: a fitted negative slope
would make an algorithm look cheaper as inputs grow, poisoning exactly
the large-n extrapolations the planner leans on.

Two modes:

  Sweep mode (default): drives `utk_cli run --algo <a> --stats-dir <tmp>`
  over a (dataset x k x sigma x algorithm) grid, then fits from the history
  file those runs appended. Datasets are generated on the fly with
  `utk_cli generate` at the sizes in --sizes; slow algorithms (sk, on,
  naive) only sweep sizes up to their --max-n caps so a calibration run
  stays minutes, not hours.

  --from-csv FILE: skips the sweep and fits from an existing
  `utk_cli history --csv` dump (rows with cache_hits != 0 are dropped —
  a cache hit's elapsed_ms measures the cache, not the algorithm).

Output (--out, default bench/baselines/planner_model.json) is the schema
src/api/planner.cc CostModel::FromJson parses:

  {"version": 1,
   "envelope": {"n": [lo, hi], "k": [lo, hi], "d": [lo, hi]},
   "algorithms": {"rsa": [c0..c4], "jaa": [...], ...}}

The envelope is the observed range of (n, k, pref_dim); outside it the
planner falls back to the heuristic rather than extrapolate.

Usage:
  calibrate_planner.py --cli build/utk_cli [--out model.json]
      [--sizes 400,2000,20000,100000] [--dims 3,4] [--ks 5,10,20]
      [--sigmas 0.08,0.15] [--queries 3] [--seed 42]
      [--algos rsa,jaa,sk,on,naive] [--baseline-max-n 2000]
      [--naive-max-n 400] [--keep-dir DIR]
  calibrate_planner.py --from-csv history.csv [--out model.json]
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

FEATURES = 5
RIDGE = 1e-6  # keeps the normal equations solvable on degenerate sweeps
# Row weight is 1/max(y, 0.1)^WEIGHT_EXP. Exponent 2 is pure relative error
# (chases the many sub-ms rows, flattening the fit until big configs are
# underbid); exponent 0 is absolute error (chases the seconds-long rows,
# nonsense at the small end). 1.5 is the empirical sweet spot where the
# fitted ranking matches the measured ranking at both ends of the sweep.
WEIGHT_EXP = 1.5

# Fixed leading columns of `utk_cli history --csv` (before the QueryStats
# row, whose own header follows them).
TS, FP, MODE, K, N, PREF_DIM, WIDTH, RAN, PLANNED, REASON = range(10)


def band_estimate(n, k, pref_dim):
    """Mirror of src/api/planner.cc EstimateBandSize, truncation included."""
    est = float(k) * math.log(float(n) + 1.0) ** float(pref_dim - 1)
    est = min(est, float(n))
    est = max(est, float(min(k, n)))
    return float(int(est))  # C++ casts to int64_t


def features(n, k, pref_dim, region_width):
    """Mirror of src/api/planner.cc PlannerFeatures."""
    band = band_estimate(n, k, pref_dim)
    f2 = band / 1000.0
    return [1.0, float(n) / 1000.0, f2, f2 * float(k), f2 * f2 * region_width]


def solve(a, b):
    """Gaussian elimination with partial pivoting; a is n x n, b length n."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-12:
            raise ValueError("singular system (not enough sweep diversity)")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= factor * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))) / m[r][r]
    return x


def fit(rows):
    """Non-negative ridge WLS of elapsed_ms on the feature vector.

    Every feature is a work proxy (rows scanned, cells built, ...), so a
    negative coefficient is always overfitting — and a dangerous kind: a
    negative n-slope makes an algorithm look *cheaper* as the input grows,
    exactly where extrapolation errors cost the most. Poor-man's NNLS:
    solve the weighted normal equations, drop the most negative
    coefficient's feature, resolve until all survivors are >= 0.
    """
    active = list(range(FEATURES))
    while active:
        xtx = [[RIDGE if i == j else 0.0 for j in range(len(active))]
               for i in range(len(active))]
        xty = [0.0] * len(active)
        for f, y in rows:
            w = 1.0 / max(y, 0.1) ** WEIGHT_EXP
            for i, fi in enumerate(active):
                xty[i] += w * f[fi] * y
                for j, fj in enumerate(active):
                    xtx[i][j] += w * f[fi] * f[fj]
        sol = solve(xtx, xty)
        worst = min(range(len(active)), key=lambda i: sol[i])
        if sol[worst] >= 0.0:
            coeffs = [0.0] * FEATURES
            for i, fi in enumerate(active):
                coeffs[fi] = sol[i]
            return coeffs
        active.pop(worst)
    raise ValueError("all coefficients eliminated (degenerate sweep data)")


def parse_history_csv(text):
    """(algo, n, k, pref_dim, width, elapsed_ms) per non-cache-hit row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    cache_hits_col = header.index("cache_hits")
    out = []
    for line in lines[1:]:
        cols = line.split(",")
        if int(cols[cache_hits_col]) != 0:
            continue
        out.append((cols[RAN].lower(), int(cols[N]), int(cols[K]),
                    int(cols[PREF_DIM]), float(cols[WIDTH]),
                    float(cols[-1])))  # elapsed_ms is always last
    return out


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"command failed: {' '.join(cmd)}\n{proc.stderr}")
        sys.exit(1)
    return proc.stdout


def sweep(args, workdir):
    """Drives utk_cli over the grid; returns parsed history rows."""
    sizes = [int(s) for s in args.sizes.split(",")]
    dims = [int(s) for s in args.dims.split(",")]
    ks = [int(s) for s in args.ks.split(",")]
    sigmas = [float(s) for s in args.sigmas.split(",")]
    algos = args.algos.split(",")
    caps = {"sk": args.baseline_max_n, "on": args.baseline_max_n,
            "naive": args.naive_max_n}

    datasets = {}
    for n in sizes:
        for dim in dims:
            path = os.path.join(workdir, f"cal_{n}_{dim}.csv")
            run([args.cli, "generate", "--dist", "IND", "--n", str(n),
                 "--dim", str(dim), "--seed", str(args.seed), "--out", path])
            datasets[(n, dim)] = path

    stats_dir = os.path.join(workdir, "stats")
    total = 0
    for (n, dim), data in sorted(datasets.items()):
        for k in ks:
            for sigma in sigmas:
                for algo in algos:
                    if n > caps.get(algo, 10**18):
                        continue
                    # UTK2 rows ride along for jaa/sk so the model sees both
                    # modes; rsa/naive answer UTK1 only.
                    modes = ["utk1"]
                    if algo in ("jaa", "sk"):
                        modes.append("utk2")
                    for mode in modes:
                        run([args.cli, "run", "--data", data,
                             "--algo", algo, "--mode", mode, "--k", str(k),
                             "--queries", str(args.queries), "--sigma",
                             str(sigma), "--seed", str(args.seed),
                             "--stats-dir", stats_dir])
                        total += args.queries
    print(f"sweep: {total} measured queries ({len(sizes)} sizes x "
          f"{len(dims)} dims x {len(ks)} ks x {len(sigmas)} sigmas)")
    return parse_history_csv(
        run([args.cli, "history", "--file",
             os.path.join(stats_dir, "history.utkh"), "--csv"]))


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--cli", help="path to a built utk_cli")
    p.add_argument("--from-csv", help="fit from a history --csv dump instead")
    p.add_argument("--out", default="bench/baselines/planner_model.json")
    p.add_argument("--sizes", default="400,2000,20000,100000")
    p.add_argument("--dims", default="3,4",
                   help="dataset attribute counts (pref_dim = dim - 1)")
    p.add_argument("--ks", default="5,10,20")
    p.add_argument("--sigmas", default="0.08,0.15")
    p.add_argument("--queries", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--algos", default="rsa,jaa,sk,on,naive")
    p.add_argument("--baseline-max-n", type=int, default=400,
                   help="largest n the sk/on baselines sweep (they are "
                        "seconds-per-query beyond small n; the model only "
                        "needs their magnitude, not their scaling curve)")
    p.add_argument("--naive-max-n", type=int, default=400,
                   help="largest n the naive oracle sweeps")
    p.add_argument("--keep-dir", help="keep sweep artifacts here (debug)")
    args = p.parse_args()

    if args.from_csv:
        with open(args.from_csv) as f:
            rows = parse_history_csv(f.read())
    elif args.cli:
        workdir = args.keep_dir or tempfile.mkdtemp(prefix="utk_calibrate_")
        os.makedirs(workdir, exist_ok=True)
        try:
            rows = sweep(args, workdir)
        finally:
            if not args.keep_dir:
                shutil.rmtree(workdir, ignore_errors=True)
    else:
        p.error("one of --cli (sweep mode) or --from-csv is required")

    if not rows:
        sys.stderr.write("no usable history rows (all cache hits?)\n")
        return 1

    by_algo = {}
    for algo, n, k, pref_dim, width, ms in rows:
        by_algo.setdefault(algo, []).append(
            (features(n, k, pref_dim, width), ms))

    algorithms = {}
    for algo, samples in sorted(by_algo.items()):
        if len(samples) < FEATURES:
            print(f"skip {algo}: only {len(samples)} rows "
                  f"(need >= {FEATURES})")
            continue
        coeffs = fit(samples)
        rel = [abs(sum(c * f[i] for i, c in enumerate(coeffs)) - y)
               / max(y, 0.1) for f, y in samples]
        mean_ms = sum(y for _, y in samples) / len(samples)
        print(f"{algo}: {len(samples)} rows, mean {mean_ms:.2f} ms, "
              f"mean relative |resid| {sum(rel) / len(rel):.2f}")
        algorithms[algo] = [round(c, 6) for c in coeffs]

    if not algorithms:
        sys.stderr.write("no algorithm had enough rows to fit\n")
        return 1

    model = {
        "version": 1,
        "envelope": {
            "n": [min(r[1] for r in rows), max(r[1] for r in rows)],
            "k": [min(r[2] for r in rows), max(r[2] for r in rows)],
            "d": [min(r[3] for r in rows), max(r[3] for r in rows)],
        },
        "algorithms": algorithms,
    }
    with open(args.out, "w") as f:
        json.dump(model, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out} "
          f"(envelope n={model['envelope']['n']} k={model['envelope']['k']} "
          f"d={model['envelope']['d']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
