#!/usr/bin/env bash
# Line coverage of src/ per module. Configures BUILD as a gcc --coverage
# build at -O1, builds it, runs the full ctest suite, and folds the
# `gcov --json-format` records of every object file (library, tests,
# benches and examples alike) into executable and covered lines per
# src/<module>/. A line is covered when any object ran it, so a header
# line inlined into several objects counts once.
#
#   scripts/coverage.sh BUILD        # e.g. scripts/coverage.sh build-coverage
#
# A measuring tool, not a gate: thread timing moves a few lines between
# runs, and the instrumented suite runs several times slower than the
# Release one. It needs gcc's gcov and python3. The table is printed even
# when tests fail; the exit status is then ctest's.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:?usage: scripts/coverage.sh BUILD}"

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Coverage \
  -DCMAKE_CXX_FLAGS_COVERAGE="--coverage -O1" \
  -DCMAKE_EXE_LINKER_FLAGS_COVERAGE=--coverage >/dev/null
cmake --build "$build" -j"$(nproc)"

# Counts accumulate across runs, so each run starts from zero.
find "$build" -name '*.gcda' -delete
status=0
ctest --test-dir "$build" -j"$(nproc)" >/dev/null || status=$?

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
find "$(cd "$build" && pwd)" -name '*.gcda' -print0 |
  (cd "$scratch" && xargs -0 gcov --json-format --stdout 2>/dev/null ||
    true) |
  python3 -c '
import collections, json, os, sys

src = os.path.realpath(sys.argv[1]) + os.sep
covered = collections.defaultdict(dict)  # file -> line -> ran
for text in sys.stdin:  # gcov prints one JSON document per line
    if not text.strip():
        continue
    doc = json.loads(text)
    cwd = doc.get("current_working_directory", "")
    for record in doc["files"]:
        path = os.path.realpath(os.path.join(cwd, record["file"]))
        if not path.startswith(src):
            continue
        lines = covered[path]
        for line in record["lines"]:
            number = line["line_number"]
            lines[number] = lines.get(number, False) or line["count"] > 0

modules = collections.defaultdict(lambda: [0, 0])
for path, lines in covered.items():
    module = modules[os.path.relpath(path, src).split(os.sep)[0]]
    module[0] += sum(lines.values())
    module[1] += len(lines)
row = "{:<10} {:>8} {:>8} {:>8}"
print(row.format("module", "covered", "lines", "percent"))
total = [0, 0]
for name in sorted(modules):
    hit, lines = modules[name]
    total[0] += hit
    total[1] += lines
    print(row.format(name, hit, lines, "%.1f%%" % (100.0 * hit / lines)))
print(row.format("src", total[0], total[1],
                 "%.1f%%" % (100.0 * total[0] / total[1])))
' "$repo/src"

exit "$status"
