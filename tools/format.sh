#!/usr/bin/env bash
# Formats the repo's C++ sources in place with clang-format, or verifies
# them with --check (what CI's format job runs). The file list here is the
# single source of truth — keep it in sync with nothing; CI calls this
# script.
#
#   tools/format.sh           rewrite files in place
#   tools/format.sh --check   exit non-zero on any violation (no writes)
#
# CLANG_FORMAT overrides the binary (CI pins clang-format-18: layout
# decisions shift between clang-format majors, and tracking a moving
# default would re-flag untouched code on every toolchain bump).
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

case "${1:-}" in
  "") MODE=(-i) ;;
  --check) MODE=(--dry-run -Werror) ;;
  *)
    echo "usage: tools/format.sh [--check]" >&2
    exit 2
    ;;
esac

FMT="${CLANG_FORMAT:-}"
if [ -z "$FMT" ]; then
  for candidate in clang-format-18 clang-format; do
    if command -v "$candidate" > /dev/null 2>&1; then
      FMT="$candidate"
      break
    fi
  done
fi
if [ -z "$FMT" ]; then
  echo "error: no clang-format binary found (set CLANG_FORMAT=<path>)" >&2
  exit 1
fi

"$FMT" --version
git ls-files 'src/**/*.cc' 'src/**/*.h' 'tests/*.cc' 'tools/*.cc' \
  'examples/*.cpp' | xargs "$FMT" "${MODE[@]}"
