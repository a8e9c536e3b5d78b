#!/usr/bin/env python3
"""Pin the answer digests of a perfbench --smoke artifact.

Usage:
    check_smoke_digests.py SMOKE_JSON

perfbench's own self-test only checks that its 1-thread and nproc runs
agree with each other. This pins the answers themselves: each workload's
digests must equal the recorded value at both thread counts, so a change
that moves any answer (a sampler decision, a random stream, the read-out)
fails here and has to re-pin the digests on purpose. Exits 1 on any
mismatch.
"""

import json
import sys

EXPECTED = {
    "mqo-paper": "10fe584fa8dd3fad",
    "service-small": "a84e1a88fb4415cf",
}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        determinism = json.load(handle)["determinism"]
    ok = True
    for workload, digest in EXPECTED.items():
        got = {key: value for key, value in determinism[workload].items()
               if key.startswith("digest_")}
        print(workload, got)
        if len(got) != 2 or set(got.values()) != {digest}:
            print(f"FAIL {workload}: expected {digest} at 1 and nproc "
                  "threads")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
