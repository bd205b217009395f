#!/usr/bin/env bash
# Parent-vs-change benchmark pairs for the command in BENCHMARK.json.
#
# Builds a parent ref in a git worktree with its own CARGO_TARGET_DIR, then
# runs the benchmark command for parent and change alternately — one pair per
# (seed, workload), the side that goes first alternating pair by pair so host
# drift cancels — and prints, per (workload, end-to-end metric): median and
# quartiles of both sides, the change of the median, how many pairs the change
# won, each side's quartile spread against the metric's bound, and how many
# runs exited non-zero or reported failed operations.
#
#   scripts/bench_pairs.sh                      # HEAD vs the working tree, 10 seeds
#   scripts/bench_pairs.sh --parent main --seeds 12 --workloads "range_20k grid_tcp"
#   scripts/bench_pairs.sh --report-only --out /tmp/pairs   # re-print a finished run
#
# Options:
#   --parent REF        ref to compare against (default HEAD)
#   --parent-dir DIR    use an existing checkout of the parent instead of a worktree
#   --seeds N           pairs per workload (default 10)
#   --first-seed S      first seed; seeds are S, S+1, ... (default 1)
#   --seconds S         measured seconds per run (default: run_seconds of BENCHMARK.json)
#   --workloads "A B"   subset of the workloads (default: all in BENCHMARK.json)
#   --out DIR           where worktree, target dirs and results go
#                       (default ${TMPDIR:-/tmp}/bench_pairs)
#   --report-only       skip building and running; report what DIR/runs holds
set -euo pipefail

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent_ref=HEAD parent_dir="" seeds=10 first_seed=1 seconds="" workloads="" report_only=0
out=${TMPDIR:-/tmp}/bench_pairs
while [ $# -gt 0 ]; do
    case $1 in
        --parent) parent_ref=$2; shift 2 ;;
        --parent-dir) parent_dir=$2; shift 2 ;;
        --seeds) seeds=$2; shift 2 ;;
        --first-seed) first_seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --report-only) report_only=1; shift ;;
        -h | --help) sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

spec=$repo/BENCHMARK.json
read_spec() { python3 -c "import json,sys; b=json.load(open('$spec')); print($1)"; }
mapfile -t command < <(read_spec "'\n'.join(b['command'])")
[ -n "$seconds" ] || seconds=$(read_spec "b['run_seconds']")
[ -n "$workloads" ] || workloads=$(read_spec "' '.join(w['name'] for w in b['workloads'])")
mkdir -p "$out/runs"

# One run: the benchmark command in checkout $2, its last stdout line (the
# result JSON) and exit code kept under runs/.
run() { # side dir workload seed
    local base=$out/runs/$1-$3-$4 code=0
    (cd "$2" && CARGO_TARGET_DIR=$out/$1-target "${command[@]}" \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >"$base.log" 2>&1 || code=$?
    tail -n 1 "$base.log" >"$base.json"
    echo "$code" >"$base.exit"
    printf '  %-6s %-13s seed %-3s exit %s\n' "$1" "$3" "$4" "$code"
}

if [ "$report_only" -eq 0 ]; then
    if [ -z "$parent_dir" ]; then
        parent_dir=$out/parent-src
        git -C "$repo" worktree remove --force "$parent_dir" 2>/dev/null || true
        git -C "$repo" worktree add --detach "$parent_dir" "$parent_ref" >/dev/null
        trap 'git -C "$repo" worktree remove --force "$parent_dir" 2>/dev/null || true' EXIT
    fi
    echo "parent $(git -C "$parent_dir" rev-parse --short HEAD) in $parent_dir, change in $repo"
    echo "building both sides (own target dirs under $out) ..."
    for side in parent change; do
        dir=$repo; [ $side = parent ] && dir=$parent_dir
        manifest=$(read_spec "b['command'][b['command'].index('--manifest-path') + 1]")
        (cd "$dir" && CARGO_TARGET_DIR=$out/$side-target \
            cargo build --release --offline --quiet --manifest-path "$manifest")
    done
    pair=0
    for ((seed = first_seed; seed < first_seed + seeds; seed++)); do
        for workload in $workloads; do
            if ((pair++ % 2 == 0)); then
                run parent "$parent_dir" "$workload" "$seed"; run change "$repo" "$workload" "$seed"
            else
                run change "$repo" "$workload" "$seed"; run parent "$parent_dir" "$workload" "$seed"
            fi
        done
    done
fi

python3 - "$spec" "$out/runs" <<'PY'
import glob, json, os, statistics, sys

spec, runs = json.load(open(sys.argv[1])), sys.argv[2]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

failed_runs = {}
values = {}  # (workload, side) -> seed -> metrics
for path in sorted(glob.glob(os.path.join(runs, "*.json"))):
    side, workload, seed = os.path.basename(path)[: -len(".json")].rsplit("-", 2)
    code = int(open(path[: -len(".json")] + ".exit").read().strip() or 1)
    try:
        result = json.loads(open(path).read())
    except ValueError:
        result = None
    ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
    if not ok:
        failed_runs.setdefault((workload, side), []).append(seed)
    if result is not None:
        values.setdefault((workload, side), {})[seed] = {k: v["value"] for k, v in result["metrics"].items()}

for workload in [w["name"] for w in spec["workloads"]]:
    parent, change = values.get((workload, "parent"), {}), values.get((workload, "change"), {})
    seeds = sorted(set(parent) & set(change), key=int)
    if not seeds:
        continue
    print(f"\n{workload}: {len(seeds)} pairs (seeds {', '.join(seeds)})")
    print(f"  {'metric':<20} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'change':>8} {'wins':>6}  spread parent/change vs bound")
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        p = [parent[s][name] for s in seeds]
        c = [change[s][name] for s in seeds]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        delta = (cm - pm) / pm if pm else 0.0
        worse = delta > bound if lower else -delta > bound
        sp, sc = (p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0
        flags = ("  WORSE BEYOND BOUND" if worse else "") + ("  SPREAD > BOUND" if max(sp, sc) > bound else "")
        print(f"  {name:<20} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<34} {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<34} "
              f"{delta:>+8.1%} {f'{wins}/{len(seeds)}':>6}  {sp:.3f}/{sc:.3f} vs {bound}{flags}")
    for name in [m["name"] for m in spec["end_to_end"]]:
        print(f"  every run {name}: parent {[float(f'{parent[s][name]:.4g}') for s in seeds]}")
        print(f"  {'':>{len(name) + 10}} change {[float(f'{change[s][name]:.4g}') for s in seeds]}")

total = len(glob.glob(os.path.join(runs, "*.json")))
bad = sum(len(v) for v in failed_runs.values())
print(f"\nruns: {total}, exited non-zero or reported failed operations: {bad}")
for (workload, side), seeds in sorted(failed_runs.items()):
    print(f"  {side} {workload}: seeds {', '.join(seeds)}")
sys.exit(1 if bad else 0)
PY
