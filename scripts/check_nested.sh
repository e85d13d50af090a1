#!/usr/bin/env bash
#===- scripts/check_nested.sh - re-run the suite in a variant tree -------===//
#
# Configures a nested build tree with the given -D flags, builds the
# test binaries there and runs the suite. The zero-drift fixtures are
# this script with one flag each; every one passes only if the variant
# build changes no test outcome (the golden byte-identity tests, store
# round-trips and pipeline determinism suites included):
#
#   check_failpoints  -DCLGS_FAILPOINTS=ON             every failpoint
#                     site compiled in, none armed
#   check_overhead    -DCLGS_TELEMETRY=OFF             every metrics and
#                     trace site compiled out
#   check_dispatch    -DCLGS_FORCE_SWITCH_DISPATCH=ON  the portable switch
#                     VM loop instead of computed goto
#
# CMakeLists.txt registers them as ctests (one nested tree each, label
# = fixture name without the check_ prefix). The same script drives the
# sanitizer runs, which stay out of tier-1 because they rebuild the
# tree and run several times slower:
#
#   bash scripts/check_nested.sh asan . build-asan \
#        -DCLGS_SANITIZE=address,undefined
#   bash scripts/check_nested.sh tsan . build-tsan -L stress \
#        -DCLGS_SANITIZE=thread
#
# Usage: check_nested.sh <name> <source-dir> <build-dir> [-L <label>]
#                        [-D<VAR>=<VALUE>]...
#
# By default the nested ctest runs everything except the stress label
# and the meta-fixture labels; -L <label> runs only that label instead.
# Every nested tree is configured with -DCLGS_NESTED_FIXTURE=ON, which
# keeps the meta-fixtures from registering there, so the build
# recursion stops at one level. UBSan is made to stop at its first
# report so a sanitizer finding fails the run.
#
#===----------------------------------------------------------------------===//

set -eu

usage="usage: check_nested.sh <name> <source-dir> <build-dir> [-L <label>] [-D...]..."
NAME=${1:?$usage}
SRC=${2:?$usage}
BUILD=${3:?$usage}
shift 3

SELECT=(-LE 'stress|failpoints|overhead|dispatch')
DEFS=()
while [ $# -gt 0 ]; do
  case "$1" in
    -L) SELECT=(-L "${2:?$usage}"); shift 2 ;;
    -D*) DEFS+=("$1"); shift ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}

echo "$NAME: configuring $BUILD with ${DEFS[*]:-no extra flags}"
cmake -B "$BUILD" -S "$SRC" "${DEFS[@]}" -DCLGS_NESTED_FIXTURE=ON >/dev/null

echo "$NAME: building test binaries"
cmake --build "$BUILD" -j "$(nproc)" --target clgen_tests clgen_stress_tests \
      >/dev/null

echo "$NAME: running ctest ${SELECT[*]}"
# The label selection must precede the bare -j: ctest's optional-value
# -j would otherwise swallow it and run the suite unfiltered.
(cd "$BUILD" && ctest --output-on-failure "${SELECT[@]}" -j)

echo "$NAME: the variant tree drifts by nothing"
