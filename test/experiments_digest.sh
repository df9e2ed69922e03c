#!/bin/sh
# Print one SHA-256 line per CSV file that `experiments --csv` writes, over
# every experiment, with the host-time column of the section 5.6 overhead
# table (host_ns_per_decision) blanked: that column is a host measurement,
# everything else is a pure function of the seeds. test/experiments_csv.sha256
# holds the committed digest; CI diffs against it, so a change that moves any
# experiment's schedule fails unless it updates the digest on purpose:
#
#   dune build && sh test/experiments_digest.sh | diff test/experiments_csv.sha256 -
#   dune build && sh test/experiments_digest.sh > test/experiments_csv.sha256
#
# The optional argument names the experiments executable.
set -eu
exe=${1:-_build/default/bin/experiments.exe}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$exe" --csv "$dir" > /dev/null
for f in "$dir"/*.csv; do
  name=$(basename "$f")
  awk -F, -v OFS=, '
    NR == 1 { for (i = 1; i <= NF; i++) if ($i == "host_ns_per_decision") c = i }
    { if (c) $c = ""; print }' "$f" | sha256sum | sed "s|  -\$|  $name|"
done
