#!/usr/bin/env bash
# check_figures.sh BUILD_DIR — rerun every bench whose stdout is committed as
# results/<bench>.txt and diff it against that file.
#
# The benches run on the simulator's virtual clock, so an unchanged program
# prints every figure, table and ablation byte for byte. micro_toolbox is
# compared through its "# gbparams-end" line: the Google Benchmark table
# after it is timed on the host. Each bench runs in a fresh directory, where
# it writes results/BENCH_<bench>.json. Exits 1 when any output differs or
# any bench fails to run.
set -uo pipefail

build=$(cd "${1:?usage: check_figures.sh BUILD_DIR}" && pwd) || exit 2
status=0
for want in "$(dirname "$0")"/../results/*.txt; do
    name=$(basename "$want" .txt)
    work=$(mktemp -d)
    if (cd "$work" && "$build/bench/$name") | sed -n '1,/^# gbparams-end/p' |
        diff -u --label "$want" --label "$name" <(sed -n '1,/^# gbparams-end/p' "$want") -; then
        echo "ok   $name"
    else
        echo "FAIL $name"
        status=1
    fi
    rm -rf "$work"
done
exit "$status"
