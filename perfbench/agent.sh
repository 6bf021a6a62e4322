#!/bin/sh
# Stand-in agent for the evolve_inherit workload.
#
# Runs inside a seedevo workspace.  With a parent it carries the
# parent's solution tree forward; on an initial seed it copies the
# 0.5 MiB template from the linked task data.  It then reports one
# experiment whose score is a fixed integer function of the parent's
# score, the iteration and the slot (checks.agent_score recomputes it).
set -e

iteration=
slot=
parent=
# seed_manifest.json is written with sorted keys and two-space indent:
# the first "score" belongs to parent_0, and the top-level "slot" line
# is the last key.
while IFS= read -r line; do
    case $line in
        *'"iteration": '*) v=${line##*: }; iteration=${v%,} ;;
        *'"score": '*) if [ -z "$parent" ]; then v=${line##*: }; v=${v%,}; parent=${v%.0}; fi ;;
        '  "slot": '*) slot=${line##*: } ;;
    esac
done < "$SEEDEVO_SEED_MANIFEST"

mkdir -p Experiments/main_training/run_1 logs
if [ -n "$parent" ]; then
    cp -R "Previous Experiments/parent_0/solution" solution
    score=$((parent + (iteration * 7 + slot * 13) % 11 - 5))
else
    cp -R data/solution_template solution
    score=$((500 + (iteration * 37 + slot * 101) % 200))
fi
printf '{"run_name": "run_1", "score": %d}\n' "$score" > Experiments/main_training/run_1/results.json
printf 'iteration %s slot %s score %s\n' "$iteration" "$slot" "$score" > logs/agent.log
