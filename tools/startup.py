"""Start-up time of the command-line entry points, in fresh interpreters.

    python3 tools/startup.py

Times, as wall seconds of a child process seen from this one, a bare
interpreter, ``import nilcohom.cli``, ``nilcohom figure-data`` and
``nilcohom catalog --dim 3|4 --golden``, with the package imported from this
checkout's ``src``.  Each command runs in two modes:

* ``no bytecode``: with ``-B``, as under ``PYTHONDONTWRITEBYTECODE=1``, so
  the package is compiled from source on every run while the standard
  library loads its installed bytecode (a ``src/nilcohom/__pycache__`` left
  by another run would be read: the script warns if there is one);
* ``bytecode``: with ``-X pycache_prefix`` set to a temporary directory,
  filled by one warm-up run, so every module loads from a cached ``.pyc``.

The runs are interleaved, one of each command and mode per round, and the
median of 9 rounds is printed in milliseconds.  Nothing is written into the
checkout.  Standard library only.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 9
RUN = "import sys; from nilcohom.cli import main; sys.exit(main({}))"
COMMANDS = [
    ("bare", "pass"),
    ("import nilcohom.cli", "import nilcohom.cli"),
    ("figure-data", RUN.format(["figure-data"])),
    ("catalog --dim 3 --golden", RUN.format(["catalog", "--dim", "3", "--golden"])),
    ("catalog --dim 4 --golden", RUN.format(["catalog", "--dim", "4", "--golden"])),
]


def _seconds(flags: list[str], code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if (SRC / "nilcohom" / "__pycache__").exists():
        print(f"warning: {SRC / 'nilcohom' / '__pycache__'} exists; "
              "the no-bytecode runs read it", file=sys.stderr)
    with tempfile.TemporaryDirectory() as cache:
        modes = {"no bytecode": ["-B"], "bytecode": ["-X", f"pycache_prefix={cache}"]}
        for _, code in COMMANDS:  # the warm-up fills the bytecode cache
            _seconds(modes["bytecode"], code, env)
        times = {(name, mode): [] for name, _ in COMMANDS for mode in modes}
        for _ in range(ROUNDS):
            for mode, flags in modes.items():
                for name, code in COMMANDS:
                    times[name, mode].append(_seconds(flags, code, env))
    print(f"start-up, median of {ROUNDS} interleaved fresh interpreters (ms), "
          f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    print(f"{'command':<26}" + "".join(f"{mode:>13}" for mode in modes))
    for name, _ in COMMANDS:
        print(f"{name:<26}" + "".join(f"{1000 * statistics.median(times[name, mode]):13.1f}"
                                      for mode in modes))


if __name__ == "__main__":
    main()
