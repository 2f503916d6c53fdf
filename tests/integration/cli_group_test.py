#!/usr/bin/env python3
"""Integration test: the `--group` flag and system-spec bounds of `hpl_cli`.

Contract under test:

  * `check --group=G` prints one stats line per [G]-index, with the class
    counts of the token bus's two-process groups,
  * `snapshot save --group=G` and a snapshot-writing `serve --group=G`
    persist the index (`snapshot info` reports it),
  * a `--group` set that is empty or names a process outside the system
    exits 1 naming `--group` before anything is enumerated or written,
  * a formula whose K/M/Sure/E/CK group names a process outside the system
    exits 1 with a named error (it used to abort on an uncaught
    std::out_of_range),
  * `relay:N` accepts only N in [2, 64]: larger specs exit 1 naming the
    spec instead of overflowing the space's per-process rows,
  * `chains <n> <z> <p...>` accepts stage processes only in [0, n - 1]:
    a process outside the system exits 1 naming the stage argument.

Usage: cli_group_test.py <path-to-hpl_cli>
"""

import os
import subprocess
import sys
import tempfile

TIMEOUT = 90  # seconds; the whole test is sub-second locally

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL  {message}")
    else:
        print(f"ok    {message}")


def run_cli(cli, args, stdin=""):
    try:
        return subprocess.run([cli] + args, capture_output=True, text=True,
                              input=stdin, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit(f"FATAL: {' '.join(args)} hung past {TIMEOUT}s")


def group_indexes(cli, path):
    info = run_cli(cli, ["snapshot", "info", path])
    for line in info.stdout.splitlines():
        if line.startswith("group indexes:"):
            return int(line.split(":")[1])
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_group_test.py <path-to-hpl_cli>")
    cli = sys.argv[1]

    proc = run_cli(cli, ["check", "tokenbus:3,3", "K{0} token_at_p1",
                         "--group=0,1", "--group=1,2"])
    check(proc.returncode == 0, "check --group exits 0")
    check("group {p0,p1}: 9 [G]-classes over 11 computations" in proc.stdout,
          "check reports 9 [G]-classes for {p0,p1}")
    check("group {p1,p2}: 8 [G]-classes over 11 computations" in proc.stdout,
          "check reports 8 [G]-classes for {p1,p2}")

    with tempfile.TemporaryDirectory() as tmp:
        saved = os.path.join(tmp, "g.bin")
        proc = run_cli(cli, ["snapshot", "save", "tokenbus:3,3", saved,
                             "--group=0,1"])
        check(proc.returncode == 0, "snapshot save --group exits 0")
        check(group_indexes(cli, saved) == 1,
              "snapshot save persists the --group index")

        served = os.path.join(tmp, "s.bin")
        proc = run_cli(cli, ["serve", "tokenbus:3,3", f"--snapshot={served}",
                             "--group=0,1"], stdin='{"op":"quit"}\n')
        check(proc.returncode == 0, "serve --snapshot --group exits 0")
        check(group_indexes(cli, served) == 1,
              "serve's written snapshot persists the --group index")

        rejected = os.path.join(tmp, "rejected.bin")
        for bad in ["--group=0,7", "--group="]:
            for args in (["check", "tokenbus:3,3", "K{0} token_at_p1", bad],
                         ["snapshot", "save", "tokenbus:3,3", rejected, bad]):
                proc = run_cli(cli, args)
                check(proc.returncode == 1 and "--group" in proc.stderr,
                      f"{args[0]} {bad} exits 1 naming --group")
                check(proc.stdout == "" and not os.path.exists(rejected),
                      f"{args[0]} {bad} fails before enumerating")

    # A formula group naming a process outside the system is a named
    # error, whatever the modal kind or group size.
    for formula in ["K{7} token_at_p0", "M{7} token_at_p0",
                    "Sure{7} token_at_p0", "E{7} token_at_p0",
                    "CK{7} token_at_p0", "K{1,7} token_at_p0"]:
        proc = run_cli(cli, ["check", "tokenbus:3,3", formula])
        check(proc.returncode == 1 and "outside the system" in proc.stderr,
              f"check '{formula}' exits 1 naming the group")

    for spec in ["relay:65", "relay:1", "relay:1000000"]:
        proc = run_cli(cli, ["space", spec])
        check(proc.returncode == 1 and f"'{spec}'" in proc.stderr,
              f"space {spec} exits 1 naming the spec")
    proc = run_cli(cli, ["space", "relay:64"])
    check("out of range" not in proc.stderr,
          "relay:64 is inside the spec's range")

    proc = run_cli(cli, ["chains", "2", "", "7"])
    check(proc.returncode == 1 and "chain stage process" in proc.stderr
          and "[0, 1]" in proc.stderr,
          "chains 2 '' 7 exits 1 naming the stage process")
    proc = run_cli(cli, ["chains", "2", "", "1"])
    check(proc.returncode == 0, "chains 2 '' 1 is inside the system")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall CLI --group checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
