#!/bin/sh
# Mutant catalogue runner. Each test/mutants/*.patch is a small deliberate
# fault with a header that names, on one or more "Killed-by:" lines, the
# checks that must each fail once the patch is applied. For each patch the
# runner copies the working tree (tracked and untracked, ignored files left
# out) to a temporary directory, applies the patch there and runs every
# check it names:
#
#   killed          the check failed, as it must
#   survived        the check passed: the suite has lost the test that
#                   killed this mutant
#   does-not-apply  the code moved under the patch: update the patch
#   does-not-build  the patched tree does not compile: update the patch
#   broke           the check could not run to a verdict
#
# Exits 1 unless every patch applies and every check it names kills it.
# Run from the root of the repository:   sh test/mutants/run.sh [PATCH...]
#
# Checks:
#   runtest             dune runtest
#   experiments-digest  sh test/experiments_digest.sh | diff
#                       test/experiments_csv.sha256 -
#   soak                chaos soak --seeds 200 --from 0; only its exit
#                       status 1 (the soak ran and found a failing run)
#                       kills, any other failure is reported as broken

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
    experiments-digest)
      sh test/experiments_digest.sh 2> check.err \
        | diff test/experiments_csv.sha256 - > check.log 2>&1 ;;
    soak)
      ./_build/default/bin/chaos.exe soak --seeds 200 --from 0 > check.log 2>&1
      case $? in 0) return 0 ;; 1) return 1 ;; *) return 3 ;; esac ;;
    *) echo "unknown check '$1'" > check.log; return 2 ;;
  esac
}

failed=0
for patch in "$@"; do
  case "$patch" in /*) ;; *) patch="$root/$patch" ;; esac
  name=$(basename "$patch" .patch)
  checks=$(sed -n 's/^Killed-by: *//p' "$patch")
  if [ -z "$checks" ]; then
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
    for check in $checks; do
      (cd "$tmp" && run_check "$check")
      status=$?
      if [ "$status" -eq 2 ] && grep -q "^unknown check" "$tmp/check.log"; then
        echo "$name: unknown check '$check'"
        failed=1
      elif [ "$status" -eq 0 ]; then
        echo "$name: survived $check"
        failed=1
      elif [ "$check" = soak ] && [ "$status" -eq 3 ]; then
        echo "$name: broke $check"
        failed=1
      else
        echo "$name: killed by $check"
      fi
    done
  fi
  rm -rf "$tmp"
done
exit "$failed"
