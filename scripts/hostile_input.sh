#!/usr/bin/env bash
# Hostile or oversized input ends in an answer or in exit 2, never in a
# traceback or a multi-minute hang.  Each command runs under `timeout 60`.
#
#     bash scripts/hostile_input.sh
#
# Run it from any directory; it works on the checkout it belongs to.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH=src
timeout 60 python -m graphperiod.cli oracle find-period --graph complete:12 --p 11
timeout 60 python -m graphperiod.cli compute tutte --graph path:2000 > /dev/null
timeout 60 python -m graphperiod.cli compute tutte --graph cycle:1000 > /dev/null
timeout 60 python -m graphperiod.cli compute chromatic --graph cycle:5000 > /dev/null
digons=$(mktemp -d)
python -c 'print("n 301"); [print("e", v, v + 1) for v in range(300) for _ in range(2)]' > "$digons/chain.graph"
python -c 'print("n 100"); [print("e", v, (v + 1) % 100) for v in range(100) for _ in range(2)]' > "$digons/necklace.graph"
timeout 60 python -m graphperiod.cli compute tutte --graph "$digons/chain.graph" > /dev/null
timeout 60 python -m graphperiod.cli compute tutte --graph "$digons/necklace.graph" > /dev/null
status=0
timeout 60 python -m graphperiod.cli oracle automorphisms --graph complete:12 || status=$?
echo "oracle automorphisms exited $status"
test "$status" -eq 2
status=0
timeout 60 python -m graphperiod.cli oracle find-period --graph complete:40 --p 3 || status=$?
echo "oracle find-period above the vertex limit exited $status"
test "$status" -eq 2
status=0
timeout 60 python -m graphperiod.cli oracle find-period --graph complete:12 --p 5 || status=$?
echo "oracle find-period on K12 at p = 5 exited $status"
test "$status" -eq 1
status=0
timeout 60 python -m graphperiod.cli exclude --graph cycle:5 --primes "" || status=$?
echo "exclude with an empty prime list exited $status"
test "$status" -eq 2
status=0
timeout 60 python -m graphperiod.cli check cor1.2 --graph cycle:5 --p 1000000000000000003 || status=$?
echo "check at the prime 10^18 + 3 exited $status"
test "$status" -eq 1
fan=$(mktemp -d)
python -c 'print("n 1000"); [print("e 0", v) for v in range(1, 1000)]; [print("e", v, v + 1) for v in range(1, 999)]' > "$fan/fan.graph"
status=0
timeout 60 python -m graphperiod.cli compute chromatic --graph "$fan/fan.graph" > /dev/null 2> "$fan/err" || status=$?
echo "chromatic of a 1000-vertex fan exited $status"
cat "$fan/err"
test "$status" -eq 0 -o "$status" -eq 2
if grep -q "internal error" "$fan/err"; then exit 1; fi
ladder=$(mktemp -d)
python -c 'k = 700; print("n", 2 * k); [print("e", v, v + k) for v in range(k)]; [print("e", v, v + 1) for s in (0, k) for v in range(s, s + k - 1)]' > "$ladder/ladder.graph"
status=0
timeout 60 python -m graphperiod.cli compute tutte --graph "$ladder/ladder.graph" > /dev/null 2> "$ladder/err" || status=$?
echo "tutte of a 700-rung ladder exited $status"
cat "$ladder/err"
test "$status" -eq 0 -o "$status" -eq 2
if grep -q "internal error" "$ladder/err"; then exit 1; fi
