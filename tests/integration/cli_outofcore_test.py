#!/usr/bin/env python3
"""Integration test: the out-of-core CLI flags on `hpl_cli check`.

Contract under test:

  * `--segment-shift=N --residency-budget=B [--spill-dir=PATH]` must not
    change a single verdict byte: count + FNV-1a satisfying-hash of every
    formula are identical to the resident run, even with a budget far
    below the space's columnar footprint (worst-case thrash),
  * an explicit `--spill-dir` is honored and left clean: spilled
    `.hplseg` segment files are removed with the store, so the directory
    is empty again after exit,
  * flag values outside the documented ranges (`--residency-budget` >= 1,
    `--segment-shift` in [2, 26]) exit non-zero with an error naming the
    flag, and never fall through to a resident run,
  * a capped `serve --snapshot` reloaded under the same budget deepens
    round by round to the complete space: its final answers equal a
    standalone `check` of the full space, its spill directory is empty
    after exit, and `"complete"` turns true on the deepen that adds the
    last level (never before it, and every later deepen adds nothing).

Usage: cli_outofcore_test.py <path-to-hpl_cli>
"""

import json
import os
import re
import subprocess
import sys
import tempfile

TIMEOUT = 90  # seconds; the whole test is sub-second locally

# (system spec, extra args, formulas) — tokenbus spaces are tiny, so the
# 1 KiB budget + 4-row segments below genuinely force the spill path.
CASES = [
    ("tokenbus:3,3", ["--max-depth=12"],
     ["K{0} token_at_p0", "K{1} token_at_p0", "CK{0,1} token_at_p0"]),
    ("tokenbus:4,4", ["--max-depth=20"],
     ["K{0} token_at_p0", "E{0,1} token_at_p0", "M{2} !token_at_p0"]),
]
BUDGET_FLAGS = ["--segment-shift=2", "--residency-budget=1024"]

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL  {message}")
    else:
        print(f"ok    {message}")


def run_cli(cli, args, stdin_data=None):
    try:
        return subprocess.run([cli] + args, capture_output=True, text=True,
                              input=stdin_data, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit(f"FATAL: {' '.join(args)} hung past {TIMEOUT}s")


def verdict(proc):
    """(count, total, satisfying-hash) scraped from `check` output."""
    count = re.search(r"holds at (\d+)/(\d+) computations", proc.stdout)
    digest = re.search(r"satisfying-hash: ([0-9a-f]{16})", proc.stdout)
    if count is None or digest is None:
        return None
    return (int(count.group(1)), int(count.group(2)), digest.group(1))


def deepen_stream(cli):
    """Rounds of K, CK and E checks, each followed by a deepen, over a
    capped snapshot reloaded with 4-row segments under a 1 KiB budget."""
    spec = "tokenbus:5,8"
    formulas = ["K{0,1} token_at_p0", "CK{0,1} token_at_p0",
                "E{0,1} !token_at_p3"]
    rounds = 12  # the space drains 8 levels past the cap of 8
    with tempfile.TemporaryDirectory() as tmp, \
            tempfile.TemporaryDirectory() as spill_dir:
        path = os.path.join(tmp, "capped.snap")
        proc = run_cli(cli, ["serve", spec, "--max-depth=8",
                             "--allow-truncation", f"--snapshot={path}"],
                       stdin_data='{"op":"quit"}\n')
        check(proc.returncode == 0 and os.path.exists(path),
              "capped serve writes its snapshot")
        requests = []
        for r in range(rounds):
            requests += [json.dumps({"op": "check", "formula": f})
                         for f in formulas]
            requests.append(json.dumps({"op": "deepen", "id": r}))
        requests += [json.dumps({"op": "check", "formula": f})
                     for f in formulas] + ['{"op":"quit"}']
        proc = run_cli(cli, ["serve", spec, "--max-depth=8",
                             "--allow-truncation", f"--snapshot={path}",
                             f"--spill-dir={spill_dir}"] + BUDGET_FLAGS,
                       stdin_data="".join(r + "\n" for r in requests))
        check(proc.returncode == 0,
              f"budgeted serve deepens to completion (exit {proc.returncode})")
        responses = [json.loads(line) for line in proc.stdout.splitlines()
                     if line.strip()]
        if len(responses) != len(requests):
            check(False, f"one response per request "
                         f"({len(responses)}/{len(requests)})")
            return
        check(all(r.get("ok") for r in responses[:-1]),
              "every budgeted request answers ok")
        deepens = [r for r in responses if "added" in r]
        flips = [i for i, r in enumerate(deepens) if r.get("complete")]
        check(flips and flips[0] > 0 and deepens[flips[0]]["added"] > 0,
              f"complete turns true on the deepen that adds the last level "
              f"({[(r['added'], r['complete']) for r in deepens]})")
        check(flips == list(range(flips[0] if flips else 0, len(deepens))) and
              all(r["added"] == 0 for r in deepens[flips[0] + 1:]
                  if flips),
              "every deepen after the flip is complete and adds nothing")
        final = responses[-1 - len(formulas):-1]
        for formula, result in zip(formulas, final):
            standalone = run_cli(cli, ["check", spec, formula,
                                       "--max-depth=100"])
            want = verdict(standalone)
            check(want is not None and
                  (result.get("count"), result.get("hash")) ==
                  (want[0], want[2]),
                  f"final budgeted answer to '{formula}' equals a standalone "
                  f"check of the full space ({want} vs {result})")
        leftovers = os.listdir(spill_dir)
        check(not leftovers,
              f"the deepened session leaves its --spill-dir empty "
              f"(found {leftovers[:5]})")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_outofcore_test.py <path-to-hpl_cli>")
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory() as spill_dir:
        for spec, extra, formulas in CASES:
            for formula in formulas:
                resident = run_cli(cli, ["check", spec, formula] + extra)
                check(resident.returncode == 0,
                      f"resident check '{formula}' on {spec} exits 0")
                budgeted = run_cli(
                    cli, ["check", spec, formula] + extra + BUDGET_FLAGS +
                    [f"--spill-dir={spill_dir}"])
                check(budgeted.returncode == 0,
                      f"budgeted check '{formula}' on {spec} exits 0")
                want, got = verdict(resident), verdict(budgeted)
                check(want is not None and want == got,
                      f"budgeted verdict for '{formula}' on {spec} matches "
                      f"resident ({want} vs {got})")
        leftovers = os.listdir(spill_dir)
        check(not leftovers,
              f"explicit --spill-dir is empty after the store dies "
              f"(found {leftovers[:5]})")

    for bad_flag, fragment in [("--residency-budget=0", "--residency-budget"),
                               ("--residency-budget=x", "--residency-budget"),
                               ("--segment-shift=1", "--segment-shift"),
                               ("--segment-shift=27", "--segment-shift")]:
        proc = run_cli(cli, ["check", "tokenbus:3,3", "K{0} token_at_p0",
                             bad_flag])
        check(proc.returncode != 0 and fragment in proc.stderr,
              f"{bad_flag} exits non-zero naming the flag")

    deepen_stream(cli)

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
