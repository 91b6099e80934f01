#!/usr/bin/env bash
# Profiles one perfbench workload with gprof: the self-time rows and the
# heap-allocation callers behind the hot-spot lists in ROADMAP.md.
#
# Usage: scripts/profile_hotspots.sh [--workload load_steady|ckpt_restart]
#                                    [--seed N] [--seconds S]
#
# Builds graybench from perfbench/ with -O2 -g -DNDEBUG -pg into
# .bench_build/profile. The build type is not a "Rel" one, so perfbench's
# CMake leaves link-time optimization off and every function keeps its own
# row (callees inlined at -O2 still count toward their callers). Then runs
#   graybench --workload W --seed S --seconds T
# in that directory and prints gprof's top 25 rows by self time and the
# callers of operator new; the whole flat profile and call graph stay in
# .bench_build/profile/flat.txt and callgraph.txt. Nothing under perfbench/
# changes, and the benchmark's own build in .bench_build/perfbench is left
# alone.
#
# What gprof cannot see: shared libraries are not built with -pg, so time in
# libc and libstdc++ (memset and memcpy, malloc and free, std::_Hash_bytes
# behind std::hash) is missing from the flat profile, whose percentages are
# of the program's own code only. In a PC-sampled (SIGPROF) profile of the
# benchmark's own RelWithDebInfo+LTO build of load_steady, those libraries
# held about 12% of the samples. And the mcount call -pg adds to every
# function costs time of its own, so small functions called millions of
# times (a hash probe, one lookup step) rank higher here than in the LTO
# build, which inlines many of them away.
set -euo pipefail

workload=load_steady
seed=1
seconds=10
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    -h | --help) sed -n '2,27p' "$0"; exit 0 ;;
    *) echo "profile_hotspots.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build/profile"
mkdir -p "$build"
if ! { cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Gprof \
         -DCMAKE_CXX_FLAGS="-O2 -g -DNDEBUG -pg" -DCMAKE_EXE_LINKER_FLAGS="-pg" &&
       cmake --build "$build" -j "$(nproc)" --target graybench; } > "$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  exit 1
fi

out="$build/out"
mkdir -p "$out"
rm -f "$build/gmon.out"
(cd "$build" && ./graybench --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --trace 0 --out "$out" | tail -n 1)

gprof -b -p "$build/graybench" "$build/gmon.out" > "$build/flat.txt"
gprof -b -q "$build/graybench" "$build/gmon.out" > "$build/callgraph.txt"

echo
echo "== top 25 functions by self time ($workload, seed $seed, ${seconds} s;" \
  "the full list is in $build/flat.txt)"
sed -n '1,30p' "$build/flat.txt"

echo
echo "== callers of operator new"
awk '/^\[[0-9]+\].*operator new\(unsigned long\)/ { printf "%s%s\n", block, $0; exit }
     /^-+$/ { block = ""; next }
     { block = block $0 "\n" }' "$build/callgraph.txt"
