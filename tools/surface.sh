#!/bin/sh
# The public items no production line calls — the surface ROADMAP aim 2
# asks to shrink. Prints `file name` for every `pub fn`, `pub const fn`,
# `pub unsafe fn` and `pub const` defined in `crates/*/src` outside
# `#[cfg(test)]` that has no call site on a production line, then the
# count. Informational: prints, never fails. `tools/surface.sh [checkout]`
# looks at another checkout (a parent commit's).
#
# Production lines are those of `crates/*/src`, `src/`, `examples/` and
# `anda_perf/src` outside `#[cfg(test)]` items, comment lines skipped (so
# a doc mention cannot keep a dead item alive). A call site of `name` is
# `.name`, `::name`, `name(`, `name<` or `name::<`; an upper-case
# constant counts on any whole-word use. A free function (a `pub fn`
# in column 0) counts only a path or bare call, never a `.name` method
# call. Definitions (`fn name`, `const NAME`) are not uses.
#
# Blind spot: names are matched as words, not resolved, so a dead method
# or nested function that shares its name with a live one anywhere
# (`new`, `len`, a trait method) is hidden, and so is a dead free
# function that shares its name with a live one called by path. A
# function passed by bare name (`map(name)`) is listed although it is
# called.
cd "${1:-$(dirname "$0")/..}" || exit 1
prod=$(find crates/*/src src examples anda_perf/src -name '*.rs' 2>/dev/null | sort)
defs=$(find crates/*/src -name '*.rs' | sort)
awk '
FNR == 1 { intest = 0; skip = 0 }
intest { next }
/^#\[cfg\(test\)\]/ { intest = 1; next }
# An indented `#[cfg(test)]` item: skip it to its closing brace, or to
# the `;` or `,` that ends a braceless one (a statement, a field).
/^[ \t]+#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
skip {
    t = $0
    opens = gsub(/\{/, "", t)
    depth += opens - gsub(/\}/, "", t)
    if (opens) opened = 1
    if (opened ? depth <= 0 : $0 ~ /[;,][ \t]*$/) skip = 0
    next
}
/^[ \t]*\/\// { next }
pass == 1 {
    s = " " $0
    gsub(/[ \t(]fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " fn", s)
    gsub(/[ \t]const[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " const", s)
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(s, RSTART, RLENGTH)
        before = substr(s, RSTART - 1, 1)
        after = substr(s, RSTART + RLENGTH, 3)
        if (name ~ /^[A-Z][A-Z0-9_]*$/ || before == ":" ||
            (before != "." && (after ~ /^[(<]/ || after == "::<")))
            used[name] = 1
        else if (before == ".")
            method[name] = 1
        s = substr(s, RSTART + RLENGTH)
    }
    next
}
pass == 2 && /^[ \t]*pub[ \t]+(const[ \t]+|unsafe[ \t]+)*(fn[ \t]+)?[A-Za-z_]/ {
    s = $0
    sub(/^[ \t]*pub[ \t]+/, "", s)
    if (s !~ /^(const|unsafe|fn)[ \t]/) next
    while (s ~ /^(const|unsafe)[ \t]/) sub(/^[a-z]+[ \t]+/, "", s)
    sub(/^fn[ \t]+/, "", s)
    if (!match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) next
    name = substr(s, 1, RLENGTH)
    if (!(name in used) && ($0 ~ /^pub/ || !(name in method))) {
        print FILENAME, name
        dead++
    }
}
END { printf "%d public items with no production call site\n", dead }
' pass=1 $prod pass=2 $defs
