#!/bin/sh
# The exact half of the benchmark, as a gate: runs the BENCHMARK.json
# command on all five workloads at seed 1 — once `--quick` untraced, once
# `--seconds 1 --trace 1`, whose counts come from pass 0 at full shapes
# (quick shapes draw no prefix hit and queue nothing) — keeps each
# workload's `tokens_digest` and every metric the report marks
# `"exact": true`, and diffs them against the tracked tools/perf_exact.txt.
# No wall-clock number, commit id or CPU string is kept, so the file must
# be the same at every thread count and on every SIMD leg; CI checks
# that on its three x86 matrix entries (avx2 serial, auto at 4 threads —
# avx512 on a runner with VBMI + GFNI — and scalar). `ANDA_THREADS`
# (capped at the machine's processors) and `ANDA_SIMD` are taken from the
# environment.
#
#   tools/perf_exact.sh            exit 1 and print the diff on drift
#   tools/perf_exact.sh --update   adopt the fresh extract as the baseline
#
# The fresh extract is left in target/perf_exact.txt either way. The
# baseline is an x86-64 glibc statement: `expf` is the repo's own
# (anda_fp::exp), but every softmax's log-sum goes through libm `logf`
# and the synthesized weights through the `Rng`'s libm `ln`/`sin`/`cos`,
# so another libm may move a digest. CI's `neon` job does not run this.
set -eu
cd "$(dirname "$0")/.."
baseline=tools/perf_exact.txt
fresh=target/perf_exact.txt
report=target/perf_exact.json

threads=${ANDA_THREADS:-1}
nproc=$(nproc)
[ "$threads" -le "$nproc" ] || threads=$nproc

# One line per digest and per exact metric: workload, name, value, unit.
extract() {
    awk -F'"' '
        /"workload":/ { w = $4 }
        /"tokens_digest":/ { print w, "tokens_digest", $4 }
        /"exact": true/ { v = $7; gsub(/[:, ]/, "", v); print w, $4, v, $10 }
    ' "$report"
}

run() {
    cargo run --release --quiet --offline --manifest-path anda_perf/Cargo.toml -- \
        --workload all --seed 1 --threads "$threads" "$@" --out "$report" >/dev/null
    echo "# $*"
    extract
}

mkdir -p target
{
    run --quick
    run --seconds 1 --trace 1
} >"$fresh"

if [ "${1:-}" = --update ]; then
    cp "$fresh" "$baseline"
elif ! diff -u "$baseline" "$fresh"; then
    echo "exact counts differ from $baseline (threads $threads, ANDA_SIMD ${ANDA_SIMD:-auto});" \
        "if the change is meant, run tools/perf_exact.sh --update and commit the file" >&2
    exit 1
fi
