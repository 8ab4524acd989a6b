"""Child process of the ``setup_s`` measurement: ``nilcohom figure-data`` in a
fresh interpreter, then three calibration loops, whose median and total
duration go to standard error as ``calibration <median> <total>``."""

import sys
import time

from nilcohom.cli import main

code = main(["figure-data"])
sys.stdout.flush()
t0 = time.perf_counter()
from calibration import calibrate  # noqa: E402  (after the timed work)

cals = sorted(calibrate() for _ in range(3))
print(f"calibration {cals[1]} {time.perf_counter() - t0}", file=sys.stderr)
sys.exit(code)
