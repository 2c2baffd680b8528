"""Set-up cost in a fresh interpreter: import the package, import the CLI
module, and complete the first ``default_table()``.  Prints the three
times in seconds as JSON.  Run with ``src`` on PYTHONPATH."""

import json
import time

t0 = time.perf_counter()
import bundlegauge  # noqa: E402

t1 = time.perf_counter()
import bundlegauge.cli  # noqa: E402

t2 = time.perf_counter()
bundlegauge.cli.default_table()
t3 = time.perf_counter()
print(json.dumps({"package": t1 - t0, "cli": t2 - t1, "table": t3 - t2}))
