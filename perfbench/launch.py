"""Run one pass of canonlab calls and record, per call, the wall time, the
exit code and the child's peak resident set.

Usage: python3 launch.py PASS.json RESULT.json

PASS.json holds {"calls": [{"argv": [...], "stdout": path}, ...]}. An argv
entry {"file": path} is replaced, when its call starts, by the stripped text
of that file. RESULT.json receives {"walls": [...], "codes": [...],
"rss_mb": [...]}.

Linux counts the resident set of the process that spawns a child in the
child's ru_maxrss. This runner therefore imports no numpy and holds no
reports, so that the peak RSS it reads belongs to the child.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        calls = json.load(fh)["calls"]
    walls, codes, rss_mb = [], [], []
    for call in calls:
        argv = []
        for arg in call["argv"]:
            if isinstance(arg, dict):
                with open(arg["file"], encoding="utf-8") as fh:
                    arg = fh.read().strip()
            argv.append(arg)
        with open(call["stdout"], "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "canonbase_lab", *argv], stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            walls.append(perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        rss_mb.append(usage.ru_maxrss / 1024.0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"walls": walls, "codes": codes, "rss_mb": rss_mb}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
