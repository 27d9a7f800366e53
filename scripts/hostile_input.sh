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
# the graph files and error output go to one directory, removed on exit
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
timeout 60 python -m graphperiod.cli oracle find-period --graph complete:12 --p 11
timeout 60 python -m graphperiod.cli compute tutte --graph path:2000 > /dev/null
timeout 60 python -m graphperiod.cli compute tutte --graph cycle:1000 > /dev/null
timeout 60 python -m graphperiod.cli compute chromatic --graph cycle:5000 > /dev/null
python -c 'print("n 301"); [print("e", v, v + 1) for v in range(300) for _ in range(2)]' > "$work/chain.graph"
python -c 'print("n 100"); [print("e", v, (v + 1) % 100) for v in range(100) for _ in range(2)]' > "$work/necklace.graph"
timeout 60 python -m graphperiod.cli compute tutte --graph "$work/chain.graph" > /dev/null
timeout 60 python -m graphperiod.cli compute tutte --graph "$work/necklace.graph" > /dev/null
status=0
timeout 60 python -m graphperiod.cli oracle automorphisms --graph complete:12 || status=$?
echo "oracle automorphisms exited $status"
test "$status" -eq 2
status=0
timeout 60 python -m graphperiod.cli oracle find-period --graph complete:40 --p 3 || status=$?
echo "oracle find-period above the vertex limit exited $status"
test "$status" -eq 2
# a 21-cycle with shuffled labels: the search refines after each placement,
# so it answers as fast as in the cycle's own labels
python -c 'import random; r = random.Random(1); p = list(range(21)); r.shuffle(p); print("n 21"); [print("e", p[v], p[(v + 1) % 21]) for v in range(21)]' > "$work/c21.graph"
timeout 60 python -m graphperiod.cli oracle find-period --graph "$work/c21.graph" --p 7 > /dev/null
# a star on 30 leaves with shuffled labels: the search counts the hub as
# fixed before it is placed, so no leaf is tried as a fixed vertex
python -c 'import random; r = random.Random(1); p = list(range(31)); r.shuffle(p); print("n 31"); [print("e", p[0], p[v]) for v in range(1, 31)]' > "$work/star30.graph"
timeout 60 python -m graphperiod.cli oracle find-period --graph "$work/star30.graph" --p 2 > /dev/null
status=0
# 5 divides the 2000 edges, so the search runs (3 does not, and answers at once)
timeout 60 python -m graphperiod.cli oracle find-period --graph cycle:2000 --p 5 --oracle-limit 5000 || status=$?
echo "oracle find-period on a 2000-cycle exited $status"
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
python -c 'print("n 1000"); [print("e 0", v) for v in range(1, 1000)]; [print("e", v, v + 1) for v in range(1, 999)]' > "$work/fan.graph"
status=0
timeout 60 python -m graphperiod.cli compute chromatic --graph "$work/fan.graph" > /dev/null 2> "$work/fan.err" || status=$?
echo "chromatic of a 1000-vertex fan exited $status"
cat "$work/fan.err"
test "$status" -eq 0 -o "$status" -eq 2
if grep -q "internal error" "$work/fan.err"; then exit 1; fi
for k in 60 700; do
    python -c 'import sys; k = int(sys.argv[1]); print("n", 2 * k); [print("e", v, v + k) for v in range(k)]; [print("e", v, v + 1) for s in (0, k) for v in range(s, s + k - 1)]' "$k" > "$work/L$k.graph"
done
# the 60-rung ladder must finish: its series-path minors recur and are memoized
timeout 60 python -m graphperiod.cli compute tutte --graph "$work/L60.graph" > /dev/null
status=0
timeout 60 python -m graphperiod.cli compute tutte --graph "$work/L700.graph" > /dev/null 2> "$work/ladder.err" || status=$?
echo "tutte of a 700-rung ladder exited $status"
cat "$work/ladder.err"
test "$status" -eq 0 -o "$status" -eq 2
if grep -q "internal error" "$work/ladder.err"; then exit 1; fi
