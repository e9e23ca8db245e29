#!/bin/sh
# Runs the tier-1 benchmark suite with allocation reporting -count N times
# and writes a benchmark snapshot (benchmark name -> the minimum ns/op,
# allocs/op and vs/op over the N runs) at the repo root, then prints
# per-benchmark deltas against the previous snapshot and
# BENCH_baseline.json so reviewers can see hot-path cost at a glance:
#
#   ./scripts/bench.sh BENCH_new.json BENCH_old.json          # full suite
#   ./scripts/bench.sh BENCH_new.json BENCH_old.json ./internal/grid/
#   ./scripts/bench.sh -n 5 BENCH_new.json BENCH_old.json     # 5 runs
#   ./scripts/bench.sh BENCH_baseline.json                    # refresh the baseline
#
# Usage: bench.sh [-n COUNT] OUT.json [PREV.json [PACKAGES]]
# COUNT defaults to 3. PREV.json may be "-" to skip that comparison.
#
# Times are machine-dependent; allocs/op is the stable signal. The
# weak-scaling benchmarks additionally report vs/op — the run's virtual
# time — which is machine-independent and lands in the snapshot as
# vs_per_op. Single runs on small (1-2 CPU) hosts can swing individual
# ns/op entries by >50% on untouched code, which is why the snapshot keeps
# the per-benchmark minimum of several runs; record both sides of a
# bench_compare.sh comparison on the same host.
set -eu

count=3
while getopts n: opt; do
    case "$opt" in
    n) count="$OPTARG" ;;
    *) echo "usage: $0 [-n COUNT] OUT.json [PREV.json [PACKAGES]]" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 [-n COUNT] OUT.json [PREV.json [PACKAGES]]" >&2
    exit 2
fi
out="$1"
prev="${2:--}"
pkgs="${3:-./...}"

cd "$(dirname "$0")/.."
baseline="BENCH_baseline.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem -count "$count" "$pkgs" | tee "$raw"

# -count repeats each benchmark line; keep the minimum of every metric per
# benchmark, in first-seen order. The "-<GOMAXPROCS>" suffix go test adds to
# names on multi-CPU hosts is dropped, so snapshots from different hosts
# share keys.
procs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
awk -v procs="$procs" '
function keep(k, field, v) {
    if (v == "") return
    if (!((k, field) in best) || v + 0 < best[k, field] + 0) best[k, field] = v
}
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    nsop = ""; allocs = ""; vsop = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     nsop = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
        if ($(i) == "vs/op")     vsop = $(i - 1)
    }
    if (nsop == "") next
    name = $1
    if (procs > 1) sub("-" procs "$", "", name)
    k = pkg "/" name
    if (!(k in seen)) { seen[k] = 1; order[n++] = k }
    keep(k, "ns", nsop); keep(k, "allocs", allocs); keep(k, "vs", vsop)
}
END {
    print "{"
    for (j = 0; j < n; j++) {
        k = order[j]
        if (j) printf ",\n"
        printf "  \"%s\": {\"ns_per_op\": %s", k, best[k, "ns"]
        if ((k, "allocs") in best) printf ", \"allocs_per_op\": %s", best[k, "allocs"]
        if ((k, "vs") in best)     printf ", \"vs_per_op\": %s", best[k, "vs"]
        printf "}"
    }
    print "\n}"
}
' "$raw" > "$out"

echo "wrote $out"

# Compare against a reference snapshot (our own line-per-entry JSON, so
# awk can parse it directly). ns/op deltas are indicative only; a changed
# allocs/op on a hot kernel is the red flag.
print_delta() {
    ref="$1"
    echo
    echo "delta vs $ref (ns/op; allocs/op):"
    awk '
    function parse(line) {
        split(line, kv, "\": ")
        name = kv[1]; sub(/^ *"/, "", name)
        ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        al = "-"
        if (line ~ /allocs_per_op/) {
            al = line; sub(/.*"allocs_per_op": /, "", al); sub(/[,}].*/, "", al)
        }
    }
    FNR == NR && /ns_per_op/ { parse($0); bns[name] = ns; bal[name] = al; next }
    /ns_per_op/ {
        parse($0)
        if (name in bns) {
            pct = (ns - bns[name]) / bns[name] * 100
            mark = (bal[name] != al) ? "  ALLOCS CHANGED" : ""
            printf "  %-70s %10.1f -> %10.1f  (%+6.1f%%)  allocs %s -> %s%s\n",
                name, bns[name], ns, pct, bal[name], al, mark
        } else {
            printf "  %-70s %10s -> %10.1f  (new)      allocs - -> %s\n", name, "-", ns, al
        }
    }
    ' "$ref" "$out"
}

for ref in "$prev" "$baseline"; do
    if [ "$ref" != "-" ] && [ "$out" != "$ref" ] && [ -f "$ref" ]; then
        print_delta "$ref"
    fi
done
