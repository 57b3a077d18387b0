"""Time a cold start: import lcoai, then load one workload input.

Run in a fresh interpreter by ``run.py`` with ``src`` on ``PYTHONPATH``:

    python3 bench/setup_probe.py scenarios FILE.json
    python3 bench/setup_probe.py log FILE.jsonl

Prints the elapsed seconds. Interpreter start-up is not included.
"""

import sys
import time

start = time.perf_counter()
import lcoai  # noqa: E402  (the import is what is timed)

kind, path = sys.argv[1], sys.argv[2]
if kind == "scenarios":
    lcoai.load_scenarios(path)
else:
    with open(path, "rb") as fh:
        lcoai.parse_log(fh, strict=False)
print(time.perf_counter() - start)
