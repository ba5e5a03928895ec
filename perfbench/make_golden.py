"""Write the golden files: each workload's commands with their expected
exit code and standard output, as the current program produces them.

    python3 perfbench/make_golden.py

Run it only to record a deliberate change of output, and review the diff.
A command that raises is recorded as the documented error result (exit 2,
empty standard output) with the exception in ``raised``, so it counts as a
failed operation until the program handles the error.
"""

from __future__ import annotations

import json

from refclock import RefClock
from worker import GOLDEN, ROOT, run_command

OPS = ("i1", "i2", "i3", "i4", "sasaki-impl", "sasaki-prod")


def commands() -> dict:
    files = sorted(p.relative_to(ROOT).as_posix()
                   for p in (ROOT / "fixtures").rglob("*.poset"))
    families = sorted(p.relative_to(ROOT).as_posix()
                      for p in (ROOT / "fixtures").glob("*/family.poset"))
    gallery = [["check", f] for f in files]
    gallery += [["table", f, "--op", op] for f in files for op in OPS]
    for f in families:
        gallery += [["amalgam", f, "--classify"], ["amalgam", f, "--loops", "3"],
                    ["amalgam", f, "--loops", "4"], ["export", f, "--dot"]]
    return {
        "sweep-n7": [["verify", "--max-n", "7"]],
        "omid-n7": [["verify", "--max-n", "7", "--theorems", "omidentity"]],
        "gallery": gallery,
        # used by selftest.py only
        "verify-n5": [["verify", "--max-n", "5"]],
    }


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for workload, argvs in commands().items():
        entries = []
        for argv in argvs:
            _, _, code, out, crash = run_command(argv, RefClock())
            entry = {"argv": argv, "exit": code, "stdout": out}
            if crash is not None:
                entry.update(exit=2, stdout="", raised=crash)
            entries.append(entry)
        with open(GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
        print(f"{workload}: {len(entries)} commands")


if __name__ == "__main__":
    main()
