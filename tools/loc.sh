#!/bin/sh
# Non-comment, non-blank Rust lines outside `#[cfg(test)]` modules — the
# count ROADMAP aim 2 is gated on. Informational: prints, never fails.
# `tools/loc.sh [checkout]` counts another checkout (a parent commit's).
cd "${1:-$(dirname "$0")/..}" || exit 1
loc() { awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*(\/\/|$)/ { n++ } END { print n + 0 }' "$1"; }
block() {
    total=0
    for f in "$@"; do
        n=$(loc "$f"); total=$((total + n)); printf '%6d  %s\n' "$n" "$f"
    done
    printf '%6d  total\n' "$total"
}
block crates/llm/src/model.rs crates/llm/src/kv.rs $(find crates/serve/src -name '*.rs' | sort)
# The GEMM kernel layer, one level below what the first block counts.
block crates/tensor/src/matrix.rs crates/tensor/src/tile.rs
# The reproduction harness: the `figures` registry, its context, the CLI.
block $(find crates/bench/src -name '*.rs' | sort)
# The number formats and codecs everything above is built on.
block $(find crates/format/src crates/quant/src crates/fp/src -name '*.rs' | sort)
