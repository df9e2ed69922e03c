#!/bin/sh
# Mutant catalogue runner. Each test/mutants/*.patch is a small deliberate
# fault with a header that names, on its "Killed-by:" line, the check that
# must fail once the patch is applied. For each patch the runner copies the
# working tree (tracked and untracked, ignored files left out) to a
# temporary directory, applies the patch there and runs the check:
#
#   killed          the check failed, as it must
#   survived        the check passed: the suite has lost the test that
#                   killed this mutant
#   does-not-apply  the code moved under the patch: update the patch
#   does-not-build  the patched tree does not compile: update the patch
#
# Exits 1 unless every patch applies and is killed. Run from the root of
# the repository:   sh test/mutants/run.sh [PATCH...]
#
# Checks:
#   runtest   dune runtest

set -u

root=$(pwd)
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/test/mutants" ]; then
  echo "run from the root of the repository" >&2
  exit 2
fi

if [ $# -eq 0 ]; then
  set -- "$root"/test/mutants/*.patch
fi

run_check() {
  case "$1" in
    runtest) dune runtest --root . > check.log 2>&1 ;;
    *) echo "unknown check '$1'" > check.log; return 2 ;;
  esac
}

failed=0
for patch in "$@"; do
  case "$patch" in /*) ;; *) patch="$root/$patch" ;; esac
  name=$(basename "$patch" .patch)
  check=$(sed -n 's/^Killed-by: *//p' "$patch" | head -n 1)
  if [ -z "$check" ]; then
    echo "$name: no Killed-by line"
    failed=1
    continue
  fi
  tmp=$(mktemp -d)
  git ls-files -z -c -o --exclude-standard \
    | tar --null -T - -cf - \
    | tar -xf - -C "$tmp"
  if ! (cd "$tmp" && patch -p1 -s -f --dry-run < "$patch" > /dev/null 2>&1); then
    echo "$name: does-not-apply"
    failed=1
  else
    (cd "$tmp" && patch -p1 -s -f < "$patch" > /dev/null)
    if ! (cd "$tmp" && dune build --root . > check.log 2>&1); then
      echo "$name: does-not-build"
      failed=1
      rm -rf "$tmp"
      continue
    fi
    (cd "$tmp" && run_check "$check")
    status=$?
    if [ "$status" -eq 2 ] && grep -q "^unknown check" "$tmp/check.log"; then
      echo "$name: unknown check '$check'"
      failed=1
    elif [ "$status" -eq 0 ]; then
      echo "$name: survived $check"
      failed=1
    else
      echo "$name: killed by $check"
    fi
  fi
  rm -rf "$tmp"
done
exit "$failed"
