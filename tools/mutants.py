"""The mutation score of the tier-1 suite.

    python3 tools/mutants.py

Each entry of :data:`MUTANTS` is a named ``(file, old, new)`` edit of the
engine, one plausible slip each.  The script first runs tier-1 on an
unmutated copy of the checkout, then, strictly one at a time, applies each
mutant to a fresh copy in a temporary directory and runs tier-1 there with
``-x`` under a timeout of a few times the unmutated run.  Every mutant is
reported as

* ``killed``: a test failed; the first failing test is named;
* ``hung``: the timeout struck, so the suite can only catch it by time;
* ``survived``: every test passed;
* ``equivalent``: every test passed, and the entry says why no test can
  tell it from the original.

The score is the share of killed and hung mutants among those not marked
equivalent; the exit code is 1 when one survived.  It is not part of tier-1,
which it runs once per mutant; ``tests/test_mutants.py`` checks only that
every ``old`` text occurs exactly once in its file, so that a refactor
updates the list instead of silently dropping a mutant.  The script uses
the standard library and the interpreter that runs it; the copies go to the
directory ``tempfile`` picks (``TMPDIR``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# tests/test_mutants.py checks this list against the unmutated sources, so
# in a mutated copy it would kill every mutant: it is left out there
TIER1 = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    file: str        # relative to the root of the checkout
    old: str         # occurs exactly once in the file
    new: str
    equivalent: str = ""  # why no test can tell it apart, for a known equivalent


ALGEBRA = "src/nilcohom/algebra.py"
LINALG = "src/nilcohom/linalg.py"
MODEL = "src/nilcohom/model.py"
COHOMOLOGY = "src/nilcohom/cohomology.py"
METRICS = "src/nilcohom/metrics.py"
PARSER = "src/nilcohom/parser.py"
CATALOG = "src/nilcohom/catalog.py"
CLI = "src/nilcohom/cli.py"

MUTANTS = [
    Mutant("block-crossing sign", ALGEBRA,
           "odd = h2.bit_count() * a1.bit_count()", "odd = 0"),
    Mutant("Leibniz sign", ALGEBRA,
           "-sign if (odd ^ i) & 1 else sign", "-sign if odd else sign"),
    Mutant("conjugation sign in leibniz", ALGEBRA,
           "(-1) ** (dh.bit_count() * da.bit_count())", "1"),
    Mutant("degree-basis slot order against _layout", ALGEBRA,
           "for p in range(max(0, k - anti), min(holo, k) + 1)",
           "for p in reversed(range(max(0, k - anti), min(holo, k) + 1))"),
    Mutant("Gaussian product", ALGEBRA,
           "return _triple(a * c - b * e, a * e + b * c, 1)",
           "return _triple(a * c + b * e, a * e + b * c, 1)"),
    Mutant("Gaussian conjugation", ALGEBRA,
           "return _triple(self.x, -self.y, self.den)",
           "return _triple(self.x, self.y, self.den)"),
    Mutant("Gaussian sum without its integral fast path", ALGEBRA,
           "            if d == 1:\n                return _triple(self.x + o.x, self.y + o.y, 1)\n", "",
           equivalent="the general path reduces by gcd(x, y, 1) = 1, the same triple"),
    Mutant("early pivot stop", LINALG,
           "if len(pivots) == rows:", "if len(pivots) >= rows - 1:"),
    Mutant("elimination sign flip", LINALG,
           "ta, tb = xa - ta, xb - tb", "ta, tb = xa + ta, xb + tb"),
    Mutant("real-multiplier elimination sign flip", LINALG,
           "ta, tb = xa - ha * x, xb - ha * y", "ta, tb = xa + ha * x, xb + ha * y"),
    Mutant("real-multiplier loop taken for a negative imaginary part", LINALG,
           "    if hb:\n", "    if hb > 0:\n"),
    Mutant("unit-multiplier copy taken for p = 2", LINALG,
           "out = dict(v) if p == 1 else", "out = dict(v) if p <= 2 else"),
    Mutant("negative real lead left un-negated", LINALG,
           "pivots[lead] = _primitive({r: (-x, -y) for r, (x, y) in v.items()})",
           "pivots[lead] = _primitive(v)"),
    Mutant("(1, 0)-led column stored without a copy", LINALG,
           "pivots[lead] = dict(v)", "pivots[lead] = v"),
    Mutant("real lead above 1 stored without a copy", LINALG,
           "pivots[lead] = _primitive(dict(v))", "pivots[lead] = _primitive(v)"),
    Mutant("pair product sign in apply", LINALG,
           "a * x - b * y", "a * x + b * y"),
    Mutant("elimination restarted instead of resumed", LINALG,
           "    if pivots is None:\n        pivots = {}\n", "    pivots = {}\n"),
    Mutant("pivot columns left unreduced", LINALG,
           "return {r: (x // g, y // g) for r, (x, y) in v.items()}", "return v"),
    Mutant("nilpotency stop", MODEL,
           "        if len(pivots) == len(span):\n            return False",
           "        if len(pivots) == len(span):\n            return True"),
    Mutant("lower central series step keeps the old span", MODEL,
           "span = list(pivots.values())", "span = span[:len(pivots)]"),
    Mutant("wbar generators numbered from 1, not after the w's", MODEL,
           "holo + b for b in e.anti", "b for b in e.anti"),
    Mutant("bidegree test dropped from the gate", MODEL,
           "if elem.bidegree not in bidegrees:", "if False:"),
    Mutant("e and w residual labels swapped", MODEL,
           '"w" if structure._layout[1] else "e"', '"e" if structure._layout[1] else "w"'),
    Mutant("equality without the kind", MODEL,
           "type(other) is type(self) and ", ""),
    Mutant("constants cleared one by one, not by L", MODEL,
           "c.x * (scale // c.den), c.y * (scale // c.den))", "c.x, c.y)"),
    Mutant("delbar-part row filter off by one", COHOMOLOGY,
           "if r < cut}", "if r <= cut}"),
    Mutant("d column slot offsets", COHOMOLOGY,
           "for s in range(p))", "for s in range(p - 1))"),
    Mutant("delbar lead bound", COHOMOLOGY,
           "for lead, v in pivots.items() if lead < cut]",
           "for lead, v in pivots.items() if lead <= cut]"),
    Mutant("del-part row filter off by one", COHOMOLOGY,
           "if r >= cut}", "if r > cut}"),
    Mutant("del resumed without the led pivots", COHOMOLOGY,
           "for v in led], below)", "for v in led])"),
    Mutant("concat without the del pivots", COHOMOLOGY,
           "images.get((p, q - 1), ()), below)", "images.get((p, q - 1), ()))"),
    Mutant("total without the first slot's pivots", COHOMOLOGY,
           "for v in pivots.values()], first)", "for v in pivots.values()])"),
    Mutant("del pivots handed to the wrong concat", COHOMOLOGY,
           "for q in span:\n        below = {}  # pivots spanning im del(p-1,q), in the (p,q) rows\n"
           "        for p in span:",
           "for p in span:\n        below = {}  # pivots spanning im del(p-1,q), in the (p,q) rows\n"
           "        for q in span:"),
    Mutant("nonzero-column guard inverted", COHOMOLOGY,
           "if not any(columns):", "if any(columns):"),
    Mutant("dd guard", COHOMOLOGY,
           "if q < n:", "if q < n - 1:"),
    Mutant("THEORIES terms", COHOMOLOGY,
           '("bott_chern", "h_bc", 1, ((-1, "stack", 0, 0), (-1, "dd", -1, -1))),',
           '("bott_chern", "h_bc", 1, ((-1, "stack", 0, 0), (-1, "dd", 0, 0))),'),
    Mutant("plan drops a key the table holds", COHOMOLOGY,
           '"dd": (n, n - 1)', '"dd": (n, n - 2)'),
    Mutant("Betti formula", COHOMOLOGY,
           '(-1, ("total", k - 1))', '(-1, ("total", k + 1))'),
    Mutant("delta", COHOMOLOGY,
           'self.level("h_aeppli", k) - 2 * b', 'self.level("h_aeppli", k) - b'),
    Mutant("lemma verdict", COHOMOLOGY,
           "witness = next((k for k, d in enumerate(table.delta) if d), None)",
           "witness = next((k for k, d in enumerate(table.delta) if d > 1), None)"),
    Mutant("positivity elimination", METRICS,
           "a[i][j] = a[i][j] - factor * a[k][j]", "a[i][j] = a[i][j] + factor * a[k][j]"),
    Mutant("del delbar component", METRICS,
           ".component(1, 2)", ".component(2, 1)"),
    Mutant("balanced power", METRICS,
           "for _ in range(cs.n - 2):", "for _ in range(cs.n - 1):"),
    Mutant("balanced power started at F, not dF", METRICS,
           "f, power = _d_of(cs, h)", "f, _ = _d_of(cs, h)\n    power = f"),
    Mutant("one-sided dimension gate", METRICS,
           "if cs.n != h.n:", "if cs.n < h.n:"),
    Mutant("balanced without the positivity check", METRICS,
           "    _require_positive(h)\n    f, power", "    f, power"),
    Mutant("digit class widened to \\d", PARSER,
           'r"(-?)([0-9]*)(/?)([0-9]*)"', 'r"(-?)(\\d*)(/?)(\\d*)"'),
    Mutant("zero-denominator check dropped", PARSER,
           '        if not den:\n            self.error("malformed rational: zero denominator", m.start(4))\n',
           ""),
    Mutant("predicate literal with a signed tail", CATALOG,
           "sc.scan_gaussian(tail=False)", "sc.scan_gaussian()"),
    Mutant("CLI nilpotency gate inverted", CLI,
           "if not check_nilpotency(cs):", "if check_nilpotency(cs):"),
    Mutant("CSV cell separator", CLI,
           '",".join(str(cell) for cell in row)', '";".join(str(cell) for cell in row)'),
    Mutant("pass and FAIL swapped", CLI,
           'return "pass" if ok else "FAIL"', 'return "FAIL" if ok else "pass"'),
]


def run_tier1(mutant: Mutant | None, timeout: float | None) -> tuple[str, str, float]:
    """Tier-1 on a fresh copy of the checkout with ``mutant`` applied:
    ``(outcome, first failing test or note, seconds)``."""
    with tempfile.TemporaryDirectory(prefix="nilcohom-mutant-") as tmp:
        for part in COPIED:
            source, target = ROOT / part, Path(tmp) / part
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, target)
        if mutant is not None:
            path = Path(tmp) / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"mutant {mutant.name!r}: its old text does not occur "
                                 f"exactly once in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *TIER1], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "hung", f"no result in {timeout:.0f} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    first = next((line.split(" ")[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))),
                 f"pytest exit code {proc.returncode}")
    return "killed", first, seconds


def main() -> int:
    outcome, note, baseline = run_tier1(None, None)
    if outcome != "survived":
        print(f"tier-1 fails without a mutant: {note}", file=sys.stderr)
        return 2
    timeout = 4 * baseline + 30
    print(f"unmutated tier-1: {baseline:.1f} s; timeout per mutant {timeout:.0f} s")
    tally = {"killed": 0, "hung": 0, "survived": 0, "equivalent": 0}
    for mutant in MUTANTS:
        outcome, note, seconds = run_tier1(mutant, timeout)
        if outcome == "survived" and mutant.equivalent:
            outcome, note = "equivalent", mutant.equivalent
        tally[outcome] += 1
        print(f"{outcome:<10} {mutant.name:<45} {seconds:6.1f} s  {note}", flush=True)
    scored = len(MUTANTS) - tally["equivalent"]
    caught = tally["killed"] + tally["hung"]
    print(", ".join(f"{n} {k}" for k, n in tally.items())
          + f"; score {caught}/{scored}")
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
