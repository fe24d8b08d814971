"""Check the benchmark's oracles: each accepts its item's answer and rejects a wrong one.

    python3 bench/selftest.py

For the first item of every kind in every workload (and each named baseline
case), runs the item once, then feeds the oracle the true expected value,
which must pass, and a wrong expected value from WRONG_EXPECTED, which must
fail.  Exits 1 if any oracle lets a wrong value through or rejects a right one.
"""

from __future__ import annotations

import os
import shutil
import sys

import bench
import workloads


SEED = 1


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    workdir = bench.OUT / f"selftest_{os.getpid()}"
    bad = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            sf, cli, formats = bench.fresh_import()
            workload = build(workloads.Context(SEED, workdir, sf, cli, formats))
            kinds = set()
            firsts = []
            for item in workload.items:
                if item.kind not in kinds:
                    kinds.add(item.kind)
                    firsts.append(item)
            for item in firsts + [i for i in workload.named if i not in firsts]:
                if item.prepare is not None:
                    item.prepare()
                raw = item.run()
                answer = item.collect(raw) if item.collect is not None else raw
                right = item.oracle(answer, item.expected)
                wrong = item.oracle(answer, workloads.WRONG_EXPECTED[item.kind](sf, item.expected))
                ok = right is None and wrong is not None
                bad += not ok
                print(f"{'ok ' if ok else 'BAD'} {name} {item.name} [{item.kind}]: "
                      f"right -> {right or 'pass'}; wrong -> {wrong or 'pass'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} oracle(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
