#!/usr/bin/env bash
# The mutant corpus: each mutants/*.patch is a deliberate defect that the
# test named on its `Test:` line (the arguments after `cargo test
# --release`) must catch. This copies the working tree into a scratch
# directory, checks that every named test passes there as it is, then
# applies each patch in turn, runs its test and reverts it. It fails if a
# patch does not apply or build, if a named test fails on the unmutated
# copy, or if any mutant survives (its test passes). All mutants share one
# build directory, so each rebuilds only what its patch touches.
#
# Run from anywhere in the repo: bash mutants/run.sh
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
copy="$work/tree"
mkdir "$copy"
# The working tree's files that git tracks or would track (untracked ones
# not ignored), as they are now; a deleted tracked file is skipped.
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -c 2>/dev/null) | tar -x -C "$copy"
export CARGO_TARGET_DIR="$work/target"

test_args() {
    sed -n 's/^Test: //p' "$1"
}

run_test() {
    # shellcheck disable=SC2046
    (cd "$copy" && cargo test -q --release $(test_args "$1")) >"$work/log" 2>&1
}

patches=("$root"/mutants/*.patch)
for patch in "${patches[@]}"; do
    if [ -z "$(test_args "$patch")" ]; then
        echo "mutants: $(basename "$patch") names no test" >&2
        exit 1
    fi
    if ! run_test "$patch"; then
        cat "$work/log" >&2
        echo "mutants: $(test_args "$patch") fails on the unmutated tree" >&2
        exit 1
    fi
done

survived=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    if ! (cd "$copy" && patch -s -p1 <"$patch"); then
        echo "mutants: $name does not apply" >&2
        exit 1
    fi
    # shellcheck disable=SC2046
    if ! (cd "$copy" && cargo test -q --release --no-run $(test_args "$patch")) >"$work/log" 2>&1; then
        cat "$work/log" >&2
        echo "mutants: $name does not build" >&2
        exit 1
    fi
    if run_test "$patch"; then
        echo "mutant $name: SURVIVED $(test_args "$patch")"
        survived=1
    else
        echo "mutant $name: killed by $(test_args "$patch")"
    fi
    (cd "$copy" && patch -s -p1 -R <"$patch")
done
exit "$survived"
