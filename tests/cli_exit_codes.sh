#!/usr/bin/env bash
# Exit-code and usage contract of the CLI binaries:
#   0 = success, 1 = a flow/job failed, 2 = usage error.
# Usage errors print usage to STDERR; `help` prints it to STDOUT and
# exits 0. Registered in CMake as the `cli_exit_codes` ctest.
set -u

CNFETC="$1"
CNFETD="$2"
failures=0

# expect NAME EXPECTED_CODE -- CMD...
expect() {
  local name="$1" want="$2"
  shift 3
  "$@" >/tmp/cli_stdout.$$ 2>/tmp/cli_stderr.$$
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, want $want (cmd: $*)"
    failures=$((failures + 1))
  else
    echo "ok   $name"
  fi
}

# --- cnfetc ---------------------------------------------------------------
expect "no command"           2 -- "$CNFETC"
expect "unknown command"      2 -- "$CNFETC" frobnicate
expect "unknown flag"         2 -- "$CNFETC" compile --cell INV --out /tmp/x --bogus-flag 1
expect "missing required"     2 -- "$CNFETC" compile --cell INV
expect "bad stage name"       2 -- "$CNFETC" compile --cell INV --out /tmp/x --to nowhere
expect "bad tech name"        2 -- "$CNFETC" compile --cell INV --out /tmp/x --tech tube90
expect "non-numeric drive"    2 -- "$CNFETC" compile --cell INV --out /tmp/x --drive banana
expect "resume without dir"   2 -- "$CNFETC" resume
expect "batch without jobs"   2 -- "$CNFETC" batch
expect "jobs without --out"   2 -- "$CNFETC" jobs
expect "ping without server"  2 -- "$CNFETC" ping
expect "stop without server"  2 -- "$CNFETC" stop
expect "serve bad port"       2 -- "$CNFETC" serve --port 99999
expect "serve bad timeout"    2 -- "$CNFETC" serve --idle-timeout-ms banana
expect "serve bad max-conns"  2 -- "$CNFETC" serve --max-connections many
expect "monte-carlo --naive"  2 -- "$CNFETC" monte-carlo --cell NAND3 --naive
expect "zero trials"          2 -- "$CNFETC" monte-carlo --cell NAND3 --trials 0
# Numeric flags are whole numbers: integers digits only, doubles finite.
expect "negative seed"        2 -- "$CNFETC" monte-carlo --cell NAND3 --trials 10 --seed -1
expect "signed seed"          2 -- "$CNFETC" monte-carlo --cell NAND3 --trials 10 --seed +3
expect "spaced trials"        2 -- "$CNFETC" monte-carlo --cell NAND3 --trials " 10"
expect "nan drive"            2 -- "$CNFETC" compile --cell INV --out /tmp/x --drive nan
expect "inf output drive"     2 -- "$CNFETC" compile --cell INV --out /tmp/x --output-drive inf
expect "help exits 0"         0 -- "$CNFETC" help
expect "--help exits 0"       0 -- "$CNFETC" --help

# Flow-level failures (well-formed invocations that cannot succeed) are 1,
# not 2 — and a client pointed at a dead endpoint is such a failure.
expect "unknown cell is 1"    1 -- "$CNFETC" compile --cell NO_SUCH_CELL --out /tmp/cli_test_dir.$$
expect "dead server is 1"     1 -- "$CNFETC" ping --server 127.0.0.1:1
# Request ceilings (serve::RequestLimits) refuse in-process as served.
expect "trials over ceiling"  1 -- "$CNFETC" monte-carlo --cell NAND3 --trials 20000000
expect "threads over ceiling" 1 -- "$CNFETC" monte-carlo --cell NAND3 --trials 10 --threads 100000
expect "gen over ceiling"     1 -- "$CNFETC" gen --family rca --width 2000000000 --out /tmp/cli_test_dir.$$
rm -rf "/tmp/cli_test_dir.$$"

# help goes to stdout, usage errors to stderr
if ! "$CNFETC" help 2>/dev/null | grep -q "^usage:"; then
  echo "FAIL help prints usage on stdout"
  failures=$((failures + 1))
else
  echo "ok   help prints usage on stdout"
fi
if ! "$CNFETC" frobnicate 2>&1 >/dev/null | grep -q "usage:"; then
  echo "FAIL usage error prints usage on stderr"
  failures=$((failures + 1))
else
  echo "ok   usage error prints usage on stderr"
fi

# --- cnfetd ---------------------------------------------------------------
expect "cnfetd unknown flag"  2 -- "$CNFETD" --bogus
expect "cnfetd bad port"      2 -- "$CNFETD" --port over9000
expect "cnfetd missing value" 2 -- "$CNFETD" --port
expect "cnfetd --help is 0"   0 -- "$CNFETD" --help
if ! "$CNFETD" --help 2>/dev/null | grep -q "^usage:"; then
  echo "FAIL cnfetd --help prints usage on stdout"
  failures=$((failures + 1))
else
  echo "ok   cnfetd --help prints usage on stdout"
fi

rm -f /tmp/cli_stdout.$$ /tmp/cli_stderr.$$
if [ "$failures" -ne 0 ]; then
  echo "$failures CLI contract failure(s)"
  exit 1
fi
echo "all CLI exit-code checks passed"
