#!/usr/bin/env python3
"""Integration test: drive `hpl_cli serve` over a pipe.

Contract under test:

  * serve answers >= 100 warm check queries from ONE snapshot load, and
    every verdict (count + FNV-1a satisfying-set hash) is byte-identical
    to a standalone `hpl_cli check` of the same formula,
  * malformed requests -- garbage bytes, non-objects, missing fields,
    unknown ops, unparseable formulas/computations, formula groups naming
    a process outside the system, and hostile lines nesting JSON or
    formulas 100,000 levels deep -- get a graceful
    {"ok":false,"error":...} response and the loop keeps serving (no
    crash, no hang),
  * a second serve run against the snapshot written by the first starts
    from `loaded snapshot` and produces the exact same response stream,
  * protocol v3: every response (errors included) carries "v":3; a
    request's "id" member is echoed verbatim on its response; unknown
    ops name the offending op in a structured "unknown_op" field;
    {"op":"info"} reports segment/residency fields and {"op":"residency"}
    reports the out-of-core state of the store,
  * {"op":"deepen"} answers deterministically on a complete space
    (added=0) -- the same bytes whether the space was enumerated fresh
    or loaded from the snapshot.

Usage: serve_pipe_test.py <path-to-hpl_cli>
"""

import json
import os
import re
import subprocess
import sys
import tempfile

TIMEOUT = 90  # seconds; generous -- the whole test is sub-second locally
SPEC = "tokenbus:3,3"
DEPTH_FLAG = "--max-depth=12"

FORMULAS = [
    "K{0} token_at_p0",
    "K{1} token_at_p0",
    "K{0,1} token_at_p1",
    "E{0,1} token_at_p0",
    "CK{0,1} token_at_p0",
    "M{2} !token_at_p0",
]

MALFORMED = [
    "this is not json",
    "[1,2,3]",
    "{}",
    '{"op":"check"}',
    '{"op":"frobnicate"}',
    '{"op":"check","formula":"K{0} no_such_atom"}',
    '{"op":"check","formulas":[]}',
    '{"op":"check","formulas":["K{0} token_at_p0",7]}',
    '{"op":"check-at","formula":"K{0} token_at_p0","at":"0?1:x"}',
    '{"op":"check-at","formula":"K{0} token_at_p0","at":"0>1:99/zzz"}',
    '{"op":"ping","op":"ping"',  # truncated object
    # Past the JSON nesting and formula height caps: each used to overflow
    # the stack.
    "[" * 100000,
    json.dumps({"op": "check", "formula": "!" * 100000 + "token_at_p0"}),
    json.dumps({"op": "check",
                "formula": " && ".join(["token_at_p0"] * 100000)}),
]

# Well-formed requests whose error must name the defect.  A group naming a
# process outside the system used to be answered with libstdc++'s
# out-of-range text.
NAMED_ERRORS = {
    '{"op":"check","formula":"CK{7} token_at_p0"}': "outside the system",
}
MALFORMED += list(NAMED_ERRORS)

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL  {message}")
    else:
        print(f"ok    {message}")


def run_cli(cli, args, stdin_data=None):
    try:
        return subprocess.run(
            [cli] + args,
            input=stdin_data,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"FATAL: {' '.join(args)} hung past {TIMEOUT}s")


def standalone_verdicts(cli):
    """count + satisfying-hash of `hpl_cli check` for every formula."""
    verdicts = {}
    for formula in FORMULAS:
        proc = run_cli(cli, ["check", SPEC, formula, DEPTH_FLAG])
        check(proc.returncode == 0, f"standalone check '{formula}' exits 0")
        count = re.search(r"holds at (\d+)/(\d+) computations", proc.stdout)
        digest = re.search(r"satisfying-hash: ([0-9a-f]{16})", proc.stdout)
        check(count is not None and digest is not None,
              f"standalone check '{formula}' prints count and hash")
        verdicts[formula] = (int(count.group(1)), digest.group(1))
    return verdicts


def build_request_stream():
    """>=100 good check queries with malformed requests interleaved."""
    requests = ['{"op":"ping","id":"hello"}', '{"op":"info","id":17}']
    for round_index in range(17):  # 17 * 6 = 102 single checks
        for k, formula in enumerate(FORMULAS):
            body = {"op": "check", "formula": formula}
            if (round_index + k) % 5 == 0:
                body["ids"] = True
            if (round_index + k) % 3 == 0:
                body["id"] = f"r{round_index}.{k}"
            requests.append(json.dumps(body))
        # Prove the loop survives garbage mid-stream.
        requests.append(MALFORMED[round_index % len(MALFORMED)])
    # One fused batch over the whole formula set, a deepen (a no-op on this
    # complete space, so its response bytes are run-independent), then a
    # clean shutdown.
    requests.append(json.dumps({"op": "check", "formulas": FORMULAS}))
    requests.append('{"op":"deepen","levels":1,"id":"grow"}')
    requests.append('{"op":"residency","id":"res"}')
    requests.append('{"op":"info"}')
    requests.append('{"op":"quit"}')
    return requests


def run_serve(cli, snapshot_path, requests):
    proc = run_cli(
        cli,
        ["serve", SPEC, DEPTH_FLAG, f"--snapshot={snapshot_path}"],
        stdin_data="".join(line + "\n" for line in requests),
    )
    check(proc.returncode == 0, "serve exits 0 after quit")
    responses = [line for line in proc.stdout.splitlines() if line.strip()]
    check(len(responses) == len(requests),
          f"one response per request ({len(responses)}/{len(requests)})")
    return proc, responses


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: serve_pipe_test.py <path-to-hpl_cli>")
    cli = sys.argv[1]

    expected = standalone_verdicts(cli)
    requests = build_request_stream()

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = os.path.join(tmp, "space.snap")

        # Run 1: no snapshot yet -- serve enumerates and writes one.
        cold, cold_responses = run_serve(cli, snapshot_path, requests)
        check("serve: enumerated" in cold.stderr,
              "first run enumerates the space")
        check("serve: wrote snapshot" in cold.stderr,
              "first run writes the snapshot")
        check(os.path.exists(snapshot_path), "snapshot file exists")

        # `snapshot info` reads the header of what serve wrote.
        info = run_cli(cli, ["snapshot", "info", snapshot_path])
        check(info.returncode == 0 and "token_bus(n=3,passes=3)" in info.stdout,
              "snapshot info names the system")

        # Run 2: the snapshot is loaded, not re-enumerated, and the whole
        # response stream is byte-identical to the cold run's.
        warm, warm_responses = run_serve(cli, snapshot_path, requests)
        check("serve: loaded snapshot" in warm.stderr,
              "second run loads the snapshot")
        check("serve: enumerated" not in warm.stderr,
              "second run does not enumerate")
        check(warm_responses == cold_responses,
              "loaded-snapshot responses are byte-identical to cold run")

    # Validate the warm response stream against the standalone verdicts.
    ok_checks = 0
    for request_text, response_text in zip(requests, warm_responses):
        try:
            response = json.loads(response_text)
        except json.JSONDecodeError:
            check(False, f"response is valid JSON: {response_text[:80]}")
            continue
        try:
            request = json.loads(request_text)
            well_formed = isinstance(request, dict)
        except (json.JSONDecodeError, RecursionError):
            well_formed = False

        if response.get("v") != 3:
            check(False, f'response lacks "v":3: {response_text[:80]}')
            continue
        if well_formed and "id" in request:
            if response.get("id") != request["id"]:
                check(False, f"id echo mismatch for {request_text[:60]}: "
                             f"{response_text[:80]}")
                continue

        if request_text in MALFORMED or not well_formed:
            if response.get("ok") is not False or "error" not in response:
                check(False, f"malformed request got {response_text[:80]}")
            named = NAMED_ERRORS.get(request_text)
            if named is not None and named not in response.get("error", ""):
                check(False, f"error does not name the defect: "
                             f"{response_text[:120]}")
            if well_formed and request.get("op") == "frobnicate" and \
                    response.get("unknown_op") != "frobnicate":
                check(False, f"unknown op not named structurally: "
                             f"{response_text[:80]}")
            continue
        if response.get("ok") is not True:
            # The only intentionally-failing well-formed requests live in
            # MALFORMED, which the branch above already consumed.
            check(False, f"good request {request_text[:60]} "
                         f"failed: {response_text[:80]}")
            continue
        if request.get("op") == "check" and "formula" in request:
            count, digest = expected[request["formula"]]
            if response["count"] != count or response["hash"] != digest:
                check(False, f"verdict mismatch for {request['formula']}: "
                             f"serve {response['count']}/{response['hash']} "
                             f"vs check {count}/{digest}")
                continue
            if request.get("ids") and len(response["satisfying"]) != count:
                check(False, f"ids length != count for {request['formula']}")
                continue
            ok_checks += 1
        elif request.get("op") == "check" and "formulas" in request:
            for formula, result in zip(request["formulas"],
                                       response["results"]):
                count, digest = expected[formula]
                if result["count"] != count or result["hash"] != digest:
                    check(False, f"fused verdict mismatch for {formula}")
                    break
            else:
                ok_checks += len(request["formulas"])
        elif request.get("op") == "deepen":
            if response.get("added") != 0 or response.get("complete") \
                    is not True:
                check(False, f"deepen on a complete space should add 0: "
                             f"{response_text[:80]}")
        elif request.get("op") == "residency":
            for field in ("out_of_core", "segments", "segments_resident",
                          "bytes_resident"):
                if field not in response:
                    check(False, f'residency response lacks "{field}": '
                                 f"{response_text[:80]}")
                    break
        elif request.get("op") == "info":
            for field in ("out_of_core", "segments", "bytes_resident",
                          "bytes_spilled"):
                if field not in response:
                    check(False, f'v3 info response lacks "{field}": '
                                 f"{response_text[:80]}")
                    break

    check(ok_checks >= 100,
          f"{ok_checks} warm check verdicts matched standalone check (>=100)")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
