#!/bin/sh
# Build the benchmark and the serving daemon from this checkout's
# sources, then run one workload:
#
#   sh perfbench/run.sh --workload build|serve|ingest --seed N \
#     --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr; the
# result is the last line of stdout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a range_synopsis checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/rs_served.exe 1>&2
bench=./_build/default/perfbench/main.exe
# serve: the client and the daemon it spawns share one CPU.  On a
# 2-vCPU virtual machine each request otherwise wakes the other vCPU,
# and under hypervisor steal that alone doubled the narrow p50 from one
# run to the next.
case " $* " in
  *" --workload serve "*)
    if command -v taskset >/dev/null 2>&1; then
      cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')
      exec taskset -c "$cpu" "$bench" "$@"
    fi ;;
esac
exec "$bench" "$@"
