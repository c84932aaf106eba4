#!/usr/bin/env bash
# Kill/resume soak harness for durable checkpoints (docs/ROBUSTNESS.md
# "Durable checkpoints & resume").
#
# For each (program, engine, host-thread-count) configuration:
#   1. run once uninterrupted with --checkpoint-dir, recording the program
#      output and the modeled cycle count;
#   2. SOAK_KILLS times: rerun with --die-at=<random statement> (the VM
#      raises SIGKILL there — no unwind, no flush), then `ucc run --resume`
#      and assert the final output AND modeled cycles are bit-identical to
#      the uninterrupted run;
#   3. on the first kill of each configuration, flip a byte in the newest
#      on-disk generation before resuming, proving the CRC check skips it
#      and the resume falls back to an older intact generation.
#
# A kill point past the program's end is tolerated (the "kill" run just
# completes); the resume leg still runs and must still reproduce.
#
# Knobs (environment):
#   BUILD_DIR    build tree holding tools/ucc        (default: build)
#   SOAK_KILLS   kill/resume iterations per config   (default: 3)
#   SOAK_PROGS   programs under programs/ to soak    (default: fig6/7/8)
#   SOAK_ENGINES VM engines to soak                  (default: walk bytecode)
#   SOAK_THREADS host thread counts to soak          (default: 1 4)
#   SOAK_SEED    RNG seed for kill-point selection   (default: 1)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"
ucc="$build/tools/ucc"
kills="${SOAK_KILLS:-3}"
progs="${SOAK_PROGS:-fig6_shortest_path_on2 fig7_shortest_path_on3 fig8_grid_obstacle}"
engines="${SOAK_ENGINES:-walk bytecode}"
thread_counts="${SOAK_THREADS:-1 4}"
RANDOM="${SOAK_SEED:-1}"
every=8

[ -x "$ucc" ] || { echo "soak.sh: no ucc at $ucc (build first)" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "soak.sh: FAIL: $*" >&2; exit 1; }

cycles_of() { sed -n 's/^cycles=\([0-9]*\).*/\1/p' "$1"; }

# Flips one byte at the tail of the newest generation in $1, in place.
corrupt_newest() {
  local dir="$1"
  local newest
  newest="$(ls "$dir"/ckpt-*.uck 2>/dev/null | sort | tail -n1)"
  [ -n "$newest" ] || return 1
  local last byte
  last=$(( $(stat -c%s "$newest") - 1 ))
  byte="$(od -An -tu1 -j "$last" -N1 "$newest" | tr -d ' ')"
  printf "$(printf '\\%03o' $(( (byte + 1) % 256 )))" |
      dd of="$newest" bs=1 seek="$last" conv=notrunc status=none
}

configs=0 resumes=0 fallbacks=0
for prog in $progs; do
  src="$root/programs/$prog.uc"
  [ -f "$src" ] || fail "no such program $src"
  for engine in $engines; do
    for threads in $thread_counts; do
      configs=$((configs + 1))
      cfg="$prog/$engine/threads=$threads"
      common=(--engine="$engine" --threads="$threads" --checkpoint-every=$every)

      rm -rf "$tmp/base"
      "$ucc" run "$src" "${common[@]}" --checkpoint-dir="$tmp/base" --stats \
          >"$tmp/base.out" 2>"$tmp/base.err" ||
          fail "$cfg: uninterrupted run failed: $(cat "$tmp/base.err")"
      base_cycles="$(cycles_of "$tmp/base.err")"
      [ -n "$base_cycles" ] || fail "$cfg: no cycles in --stats output"
      ckpts="$(sed -n 's/.* checkpoints=\([0-9]*\).*/\1/p' "$tmp/base.err")"
      # Kill points span the statement range the captures cover; past-the-
      # end values just mean that iteration's "kill" run completes.
      max_die=$(( ${ckpts:-1} * every )); [ "$max_die" -lt 2 ] && max_die=2

      for k in $(seq 1 "$kills"); do
        die=$(( RANDOM % max_die + 2 ))
        rm -rf "$tmp/ck"
        set +e
        # Subshell (kept alive past the kill by the status write, so bash
        # can't exec-optimize it away) so bash's own "Killed" job notice
        # lands in /dev/null, not the harness log.
        ( "$ucc" run "$src" "${common[@]}" --checkpoint-dir="$tmp/ck" \
              --die-at="$die" >"$tmp/kill.out" 2>"$tmp/kill.err"
          echo $? >"$tmp/kill.status" ) 2>/dev/null
        kill_status="$(cat "$tmp/kill.status")"
        set -e
        # 137 = SIGKILL; 0 = the kill point was past the program's end.
        if [ "$kill_status" -ne 137 ] && [ "$kill_status" -ne 0 ]; then
          fail "$cfg: kill run (--die-at=$die) exited $kill_status:" \
               "$(cat "$tmp/kill.err")"
        fi

        expect_fallback=0
        if [ "$k" -eq 1 ] && corrupt_newest "$tmp/ck"; then
          expect_fallback=1
        fi

        "$ucc" run "$src" "${common[@]}" --resume="$tmp/ck" --stats \
            >"$tmp/res.out" 2>"$tmp/res.err" ||
            fail "$cfg: resume after --die-at=$die failed:" \
                 "$(cat "$tmp/res.err")"
        resumes=$((resumes + 1))

        cmp -s "$tmp/base.out" "$tmp/res.out" ||
            fail "$cfg: resumed output differs (die-at=$die)"
        res_cycles="$(cycles_of "$tmp/res.err")"
        [ "$res_cycles" = "$base_cycles" ] ||
            fail "$cfg: resumed cycles $res_cycles != $base_cycles" \
                 "(die-at=$die)"
        if [ "$expect_fallback" -eq 1 ]; then
          grep -q "skipping" "$tmp/res.err" ||
              fail "$cfg: corrupt newest generation was not skipped:" \
                   "$(cat "$tmp/res.err")"
          fallbacks=$((fallbacks + 1))
        fi
      done
      echo "soak.sh: ok: $cfg ($kills kill/resume rounds," \
           "cycles=$base_cycles)"
    done
  done
done

echo "soak.sh: PASS: $configs configs, $resumes resumes," \
     "$fallbacks corruption fallbacks"
