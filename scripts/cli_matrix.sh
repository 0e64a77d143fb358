#!/usr/bin/env bash
# The CLI matrix: a fixed set of `plb` runs plus `repro all --seeds 2`,
# every output written under OUT with its wall-clock fields blanked, so
# that two builds (or two runs of one build) compare with `diff -r`.
#
#   scripts/cli_matrix.sh PLB REPRO OUT
#
# PLB and REPRO are the two binaries (e.g. target/release/plb and
# target/release/repro); OUT must not exist yet. Each cell runs inside
# OUT with relative file names, so the stdouts it keeps ("wrote FILE")
# do not depend on where OUT is. What is kept, per cell: stdout, and
# every file the cell writes (event streams, checkpoints, profile JSON,
# report JSON, Chrome traces, Gantt SVGs).
#
# Blanked, because they are wall-clock times and differ run to run:
#   - `solve_s` in every event stream (*.jsonl);
#   - `solve times: [...]` in `plb diag`'s stdout;
#   - the `solve` column of `plb trace`'s "block-size selections" table;
#   - `done in N.NNs` in `repro`'s stdout.
# Dropped: `repro`'s ipmcost.{md,csv}, which tabulate solve times.
#
# Every flag used here is one that `plb` read before and after flags a
# subcommand does not read became usage errors, so the script runs
# unchanged on both sides of that change.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 PLB REPRO OUT" >&2
    exit 2
fi
plb=$(realpath "$1")
repro=$(realpath "$2")
out=$3
root=$(cd "$(dirname "$0")/.." && pwd)
if [ -e "$out" ]; then
    echo "$out already exists" >&2
    exit 2
fi
mkdir -p "$out"
cd "$out"
cp "$root/docs/cluster.example.json" cluster.json

# cell NAME ARGS...: `plb ARGS...`, its stdout kept as NAME.out.
cell() {
    local name=$1
    shift
    "$plb" "$@" > "$name.out"
}

# run NAME ARGS...: `plb run ARGS... --events NAME.jsonl`.
run() {
    local name=$1
    shift
    cell "$name" run "$@" --events "$name.jsonl"
}

# The two baselines across the four Table I scenarios.
for policy in hdss acosta; do
    for app in "bs 200000" "mm 16384" "grn 60000"; do
        set -- $app
        for m in 1 2 3 4; do
            run "$policy-$1-m$m" --app "$1" --size "$2" --machines "$m" \
                --policy "$policy" --noise 0.02
        done
    done
    run "$policy-faults" --app bs --size 200000 --machines 2 --policy "$policy" \
        --faults 'panic:pu=1,nth=3; delay:pu=0,from=2,n=5,s=0.1'
    run "$policy-chaos" --app bs --size 200000 --machines 2 --policy "$policy" --chaos 42
    run "$policy-chaos-elastic" --app bs --size 200000 --machines 2 --policy "$policy" \
        --chaos 42 --chaos-elastic 2
    run "$policy-spmv" --app spmv --size 200000 --skew 1.5 --seed 7 --machines 2 \
        --policy "$policy"
done

# PLB-HeC.
for app in "bs 200000" "mm 16384"; do
    set -- $app
    for m in 1 2 4; do
        run "plb-$1-m$m" --app "$1" --size "$2" --machines "$m" --policy plb-hec
    done
done
run plb-spmv --app spmv --size 200000 --skew 0.8 --seed 7 --machines 2
run plb-chaos --app bs --size 200000 --machines 2 --chaos 42
run plb-chaos-elastic --app bs --size 200000 --machines 2 --chaos 42 --chaos-elastic 2
run plb-flaky --app bs --size 200000 --machines 2 --faults 'flaky:pu=2,n=4'
run plb-join-drift --app mm --size 16384 --machines 2 \
    --faults 'join:pu=3,after=10; drift:pu=1,kind=sin,from=0,period=16,amp=0.5'

# The cluster tier.
run ring3 --app mm --size 8192 --machines 2 --nodes 3 --topology ring
run ring3-faults --app mm --size 8192 --machines 2 --nodes 3 --topology ring \
    --node-faults 'node-crash:1,2; partition:0+1|2,0.05,0.2; link-degrade:0-1,4.0,0.0,3.0'
run ring4 --app bs --size 400000 --machines 2 --nodes 4 --topology ring
run ring4-faults --app bs --size 400000 --machines 2 --nodes 4 --topology ring \
    --node-faults 'node-crash:2,3'
run ring3-spmv --app spmv --size 200000 --skew 0.8 --seed 7 --machines 2 --nodes 3 \
    --topology ring

# Greedy, a quarantine and a join.
run greedy-faults --app bs --size 200000 --machines 2 --policy greedy \
    --faults 'flaky:pu=2,n=4; join:pu=3,after=20'

# Durability.
run ckpt --app bs --size 200000 --machines 2 --checkpoint ckpt.bin --checkpoint-interval 8
run resume --app bs --size 200000 --machines 2 --checkpoint ckpt.bin --resume
run ring3-ckpt --app mm --size 8192 --machines 2 --nodes 3 --checkpoint ring3-ckpt.bin

# The extension app, noisier.
run nn --app nn --size 50000 --machines 4 --noise 0.05

# Every other output of `run`, on a --cluster platform.
run file-run --app bs --size 100000 --cluster cluster.json \
    --json file-run.json --gantt file-run.svg --trace file-run.trace.json
run file-ring --app bs --size 100000 --cluster cluster.json --nodes 2 --gantt file-ring.svg

# Offline profiles, and the static policy that reads them.
cell profile profile --app grn --size 80000 --machines 2 --profiles profiles.json
run static --app grn --size 80000 --machines 2 --policy static --profiles profiles.json
run static-flaky --app grn --size 80000 --machines 2 --policy static \
    --profiles profiles.json --faults 'flaky:pu=2,n=4'

# The other subcommands.
cell compare-bs compare --app bs --size 100000 --machines 2 --seeds 2
cell compare-mm-1gpu compare --app mm --size 16384 --machines 4 --single-gpu --seeds 2
cell compare-spmv-seed0 compare --app spmv --size 50000 --skew 1.5 --machines 2 --seeds 2
cell compare-spmv-seed7 compare --app spmv --size 50000 --skew 1.5 --seed 7 --machines 2 \
    --seeds 2
cell diag-mm diag --app mm --size 4096 --machines 2
cell diag-bs-1gpu diag --app bs --size 100000 --machines 3 --single-gpu --seed 3
cell cluster-table1 cluster
cell cluster-2-1gpu cluster --machines 2 --single-gpu
cell cluster-file cluster --cluster cluster.json
for name in plb-mm-m2 ring3-faults static-flaky; do
    cell "trace-$name" trace --input "$name.jsonl"
done

# Wall-clock fields.
sed -i -E 's/"solve_s":[^,}]*/"solve_s":"-"/g' ./*.jsonl
sed -i -E 's/solve times: \[[^]]*\]/solve times: [-]/' diag-*.out
for f in trace-*.out; do
    awk '
        /^block-size selections/ { sel = 1; print; next }
        sel && /^$/ { sel = 0 }
        sel && $1 != "t" { $5 = "-" }
        { print }
    ' "$f" > "$f.tmp"
    mv "$f.tmp" "$f"
done

"$repro" all --seeds 2 --out repro | sed -E 's/done in [0-9.]+s/done in -s/' > repro.out
rm repro/ipmcost.md repro/ipmcost.csv
