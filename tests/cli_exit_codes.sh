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
# A drive the library lacks, or one that is not a positive integer, fails
# the map stage with its reason (1), never a contract violation.
expect "drive the library lacks" 1 -- "$CNFETC" compile --cell NAND3 --drive 2 --out /tmp/cli_test_dir.$$
if ! grep -q "NOR2 drives in the library: 1" /tmp/cli_stdout.$$ /tmp/cli_stderr.$$; then
  echo "FAIL drive the library lacks: message does not name NOR2's drives"
  failures=$((failures + 1))
fi
expect "fractional drive"     1 -- "$CNFETC" compile --cell NAND2 --drive 1.5 --out /tmp/cli_test_dir.$$
if ! grep -q "drive 1.5 is not a positive integer" /tmp/cli_stdout.$$ /tmp/cli_stderr.$$; then
  echo "FAIL fractional drive: message does not say why"
  failures=$((failures + 1))
fi
# A local batch goes through the same engine, so the same thread ceiling.
expect "jobs for batch"       0 -- "$CNFETC" jobs --out /tmp/cli_jobs.$$.json
expect "batch threads over ceiling" 1 -- "$CNFETC" batch /tmp/cli_jobs.$$.json --threads 300
rm -rf "/tmp/cli_test_dir.$$" "/tmp/cli_jobs.$$.json"

# Every uint64 seed is its own seed: none is refused, none aliased by a
# round trip through a JSON double (2^53 + 1 vs 2^53).
expect "seed above 2^53"      0 -- "$CNFETC" monte-carlo --cell NAND3 --trials 200 --seed 10000000000000000
"$CNFETC" monte-carlo --cell NAND3 --trials 200 --seed 9007199254740993 \
  --out /tmp/cli_mc_a.$$.json >/dev/null 2>&1
"$CNFETC" monte-carlo --cell NAND3 --trials 200 --seed 9007199254740992 \
  --out /tmp/cli_mc_b.$$.json >/dev/null 2>&1
if [ ! -s /tmp/cli_mc_a.$$.json ] || cmp -s /tmp/cli_mc_a.$$.json /tmp/cli_mc_b.$$.json; then
  echo "FAIL seeds 2^53 + 1 and 2^53 write different --out files"
  failures=$((failures + 1))
else
  echo "ok   seeds 2^53 + 1 and 2^53 write different --out files"
fi
rm -f /tmp/cli_mc_a.$$.json /tmp/cli_mc_b.$$.json

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
# Digits-only, bounded numeric flags. A daemon that accepted one would
# serve until killed, so each case runs under a timeout.
expect "cnfetd negative threads"   2 -- timeout 10 "$CNFETD" --no-warm --threads -1
expect "cnfetd signed threads"     2 -- timeout 10 "$CNFETD" --no-warm --threads +2
expect "cnfetd spaced port"        2 -- timeout 10 "$CNFETD" --no-warm --port " 0"
expect "cnfetd negative pending"   2 -- timeout 10 "$CNFETD" --no-warm --max-pending -5
expect "cnfetd negative conns"     2 -- timeout 10 "$CNFETD" --no-warm --max-connections -1
expect "cnfetd threads over ceiling" 2 -- timeout 10 "$CNFETD" --no-warm --threads 257
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
