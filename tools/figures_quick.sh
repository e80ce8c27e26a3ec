#!/bin/sh
# The paper reproduction, as a gate: runs `figures all --quick` — all 17
# artefacts of the anda_bench::FIGURES registry over one memoising
# context, the per-model ones on the first two benchmark models — and
# diffs its stdout against the tracked tools/figures_quick.txt. Every
# artefact is seeded and prints no wall-clock number, so the file must be
# the same at every thread count and on every SIMD leg; CI checks that on
# its three x86 legs. It is the broad pin on `Model::forward` under
# non-FP16 `CodecAssignment`s (perplexities, searched combinations) and on
# the cost models. `ANDA_THREADS` and `ANDA_SIMD` are taken from the
# environment.
#
#   tools/figures_quick.sh            exit 1 and print the diff on drift
#   tools/figures_quick.sh --update   adopt the fresh output as the baseline
#
# The fresh output is left in target/figures_quick.txt either way; what
# the context built (contexts prepared, searches, calibration
# perplexities) goes to stderr. The baseline is an x86-64 glibc
# statement: perplexities go through libm `logf` and `exp`, so another
# libm may move a digit. CI's `neon` job does not run this.
set -eu
cd "$(dirname "$0")/.."
baseline=tools/figures_quick.txt
fresh=target/figures_quick.txt

mkdir -p target
cargo run --release --quiet -p anda-bench --bin figures -- all --quick >"$fresh"

if [ "${1:-}" = --update ]; then
    cp "$fresh" "$baseline"
elif ! diff -u "$baseline" "$fresh"; then
    echo "figures all --quick differs from $baseline (ANDA_THREADS ${ANDA_THREADS:-1}, ANDA_SIMD ${ANDA_SIMD:-auto});" \
        "if the change is meant, run tools/figures_quick.sh --update and commit the file" >&2
    exit 1
fi
