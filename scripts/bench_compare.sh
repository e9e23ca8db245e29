#!/bin/sh
# Compares two benchmark snapshots produced by scripts/bench.sh and FAILS
# (exit 1) when any benchmark regressed by more than the threshold in
# ns/op or in allocs/op:
#
#   ./scripts/bench_compare.sh BENCH_pr2.json BENCH_pr3.json
#   BENCH_MAX_REGRESSION=10 ./scripts/bench_compare.sh old.json new.json
#   BENCH_ALLOC_ALLOWLIST='WeakScaleRepair|Checkpoint' ./scripts/bench_compare.sh old.json new.json
#
# The default threshold is 25% for both gates. Times are machine-dependent,
# so run both snapshots on the same host; allocs/op is deterministic and is
# the stronger signal — an intentional allocation change (a new code path,
# a deliberate buffering trade) is exempted per benchmark by listing it in
# the BENCH_ALLOC_ALLOWLIST extended regex, matched against the full
# "pkg/BenchmarkName" key. Benchmarks present in just one snapshot are
# listed and ignored.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <old-snapshot.json> <new-snapshot.json>" >&2
    exit 2
fi
old="$1"
new="$2"
threshold="${BENCH_MAX_REGRESSION:-25}"
allowlist="${BENCH_ALLOC_ALLOWLIST:-}"

for f in "$old" "$new"; do
    if [ ! -f "$f" ]; then
        echo "bench_compare: no such snapshot: $f" >&2
        exit 2
    fi
done

awk -v threshold="$threshold" -v allowlist="$allowlist" -v oldname="$old" -v newname="$new" '
function parse(line) {
    split(line, kv, "\": ")
    name = kv[1]; sub(/^ *"/, "", name)
    ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
    al = "-"
    if (line ~ /allocs_per_op/) {
        al = line; sub(/.*"allocs_per_op": /, "", al); sub(/[,}].*/, "", al)
    }
}
FNR == NR && /ns_per_op/ { parse($0); ons[name] = ns; oal[name] = al; next }
/ns_per_op/ {
    parse($0)
    if (!(name in ons)) {
        printf "  NEW       %-66s %.1f ns/op\n", name, ns
        next
    }
    seen[name] = 1
    pct = (ns - ons[name]) / ons[name] * 100
    status = "ok"
    if (pct > threshold) { status = "REGRESSED"; nsfailed = 1 }
    alnote = ""
    if (oal[name] != "-" && al != "-" && oal[name] + 0 > 0) {
        alpct = (al - oal[name]) / oal[name] * 100
        if (alpct > threshold) {
            if (allowlist != "" && name ~ allowlist) {
                alnote = sprintf("  ALLOCS +%.1f%% (allowlisted)", alpct)
            } else {
                status = "ALLOCS-UP"; alfailed = 1
                alnote = sprintf("  ALLOCS +%.1f%%", alpct)
            }
        }
    }
    printf "  %-9s %-66s %10.1f -> %10.1f  (%+6.1f%%)  allocs %s -> %s%s\n",
        status, name, ons[name], ns, pct, oal[name], al, alnote
}
END {
    for (name in ons) if (!(name in seen))
        printf "  REMOVED   %-66s\n", name
    if (nsfailed)
        printf "\nbench_compare: ns/op regression over %s%% between %s and %s\n",
            threshold, oldname, newname
    if (alfailed)
        printf "\nbench_compare: allocs/op regression over %s%% between %s and %s (exempt via BENCH_ALLOC_ALLOWLIST)\n",
            threshold, oldname, newname
    if (nsfailed || alfailed) exit 1
    printf "\nbench_compare: no ns/op or allocs/op regression over %s%%\n", threshold
}
' "$old" "$new"
