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
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml")
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
    Mutant("conjugate side's term keyed by one generator too few", MODEL,
           "leibniz_rows(holo, anti, j, s, bar)", "leibniz_rows(holo, anti, j - bar, s, bar)"),
    Mutant("a term table that ignores its side", ALGEBRA,
           "return _LeibnizRows(holo, anti, j, s, bar)",
           "return _LeibnizRows(holo, anti, j, s, False)"),
    Mutant("degree-basis slot order against the slot starts of _steps", ALGEBRA,
           "for p in slots(holo, anti, k)", "for p in reversed(slots(holo, anti, k))"),
    Mutant("low end of the slots one too high", ALGEBRA,
           "return range(max(0, k - anti), min(holo, k) + 1)",
           "return range(max(0, k - anti) + 1, min(holo, k) + 1)"),
    Mutant("Gaussian product", ALGEBRA,
           "return _reduced(a * c - b * e, a * e + b * c, self.den * o.den)",
           "return _reduced(a * c + b * e, a * e + b * c, self.den * o.den)"),
    Mutant("Gaussian conjugation", ALGEBRA,
           "return _triple(self.x, -self.y, self.den)",
           "return _triple(self.x, self.y, self.den)"),
    Mutant("early pivot stop", LINALG,
           "if len(pivots) == rows:", "if len(pivots) >= rows - 1:"),
    Mutant("elimination product sign", LINALG,
           "p * e[0] - ha * x + hb * y", "p * e[0] - ha * x - hb * y"),
    Mutant("elimination sign flip", LINALG,
           "p * e[1] - ha * y - hb * x", "p * e[1] + ha * y + hb * x"),
    Mutant("pivot's new rows not negated", LINALG,
           "out[r] = (hb * y - ha * x, -ha * y - hb * x)",
           "out[r] = (ha * x - hb * y, ha * y + hb * x)"),
    Mutant("pivot's own rows dropped", LINALG,
           "    for r, (x, y) in pivot.items():\n        if r not in v:", "    for r in ():\n        if 0:"),
    Mutant("unit-multiplier entries kept for p = 2", LINALG,
           "e if p == 1 else", "e if p <= 2 else"),
    Mutant("content removed after every step", LINALG,
           "-ha * y - hb * x)\n    return out\n", "-ha * y - hb * x)\n    return _primitive(out)\n"),
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
    Mutant("allowed set built over n + 1 generators", MODEL,
           "degree_basis(n, n, 2)[0] if", "degree_basis(n + 1, n + 1, 2)[0] if"),
    Mutant("bidegree test dropped from the gate", MODEL,
           "if elem.bidegree not in bidegrees:", "if False:"),
    Mutant("e and w residual labels swapped", MODEL,
           '"w" if structure._layout[1] else "e"', '"e" if structure._layout[1] else "w"'),
    Mutant("equality without the kind", MODEL,
           "type(other) is type(self) and ", ""),
    Mutant("constants cleared per generator, not by one L", MODEL,
           "self._column(2, f.terms.items(), scale)",
           "self._column(2, f.terms.items(), lcm(*(c.den for c in f.terms.values())))"),
    Mutant("degree 0 built through the constant loop", MODEL,
           "if 0 < k < holo + anti:", "if 0 <= k < holo + anti:"),
    Mutant("degree 1 skipped as if empty", MODEL,
           "if 0 < k < holo + anti:", "if 1 < k < holo + anti:"),
    Mutant("top degree built through the constant loop", MODEL,
           "if 0 < k < holo + anti:", "if 0 < k <= holo + anti:"),
    Mutant("degree below the top skipped as if empty", MODEL,
           "if 0 < k < holo + anti:", "if 0 < k < holo + anti - 1:"),
    Mutant("conjugate side's constant not conjugated", MODEL,
           "x, -y if bar else y)", "x, y)"),
    Mutant("d^2 image column read for the wrong generator", MODEL,
           "apply(structure._columns), start=1)", "apply(structure._columns)[::-1], start=1)"),
    Mutant("d^2 report divided by L, not L^2", MODEL,
           "square = structure._scale ** 2", "square = structure._scale"),
    Mutant("residual monomials of a real algebra lettered w", MODEL,
           "replace('w', label[0])", "replace('w', 'w')"),
    Mutant("d maps rows through degree k's monomials, not k + 1's", MODEL,
           "self._form(k + 1, image, den * self._scale)", "self._form(k, image, den * self._scale)"),
    Mutant("d column built over degree k + 1's places", MODEL,
           "place = degree_basis(*self._layout, k)[1]", "place = degree_basis(*self._layout, k + 1)[1]"),
    Mutant("d column not rescaled to the form's common denominator", MODEL,
           "(c.x * (den // c.den), c.y * (den // c.den))", "(c.x, c.y)"),
    Mutant("column scaled by den, not by den over each denominator", MODEL,
           "(c.x * (den // c.den), c.y * (den // c.den))", "(c.x * den, c.y * den)"),
    Mutant("Betti size read from the row count", MODEL,
           "m.cols - ranks[k + 1]", "m.rows - ranks[k + 1]"),
    Mutant("delbar-part row filter off by one", COHOMOLOGY,
           "(head if r < cut else tail)[r] = e", "(head if r <= cut else tail)[r] = e"),
    Mutant("d column slot offsets", ALGEBRA,
           "for s in range(p))", "for s in range(p - 1))"),
    Mutant("delbar lead bound", COHOMOLOGY,
           "if lead < cut:", "if lead <= cut:"),
    Mutant("del-part row filter off by one", COHOMOLOGY,
           "(head if r < cut else tail)[r] = e", "(head if r < cut - 1 else tail)[r] = e"),
    Mutant("pivot split off by one at the cut", COHOMOLOGY,
           "slot_start(n, n, k + 1, p + 1),", "slot_start(n, n, k + 1, p + 1) + 1,"),
    Mutant("concat ranked with the target degree's row count", COHOMOLOGY,
           "dim[k], dim[k + 1], dd))", "dim[k + 1], dim[k + 1], dd))"),
    Mutant("del resumed without the led pivots", COHOMOLOGY,
           "exact_rank(rows, parts, below)", "exact_rank(rows, parts)"),
    Mutant("concat without the del pivots", COHOMOLOGY,
           "exact_rank(source, image, below)", "exact_rank(source, image)"),
    Mutant("total without the first slot's pivots", COHOMOLOGY,
           "exact_rank(rows, spans, stacks[first])", "exact_rank(rows, spans)"),
    Mutant("del pivots handed to the wrong concat", COHOMOLOGY,
           "    for q in span:\n        for p in span:\n            k = p + q",
           "    for p in span:\n        for q in span:\n            k = p + q"),
    Mutant("nonzero-column guard inverted", COHOMOLOGY,
           "if any(columns) else 0", "if not any(columns) else 0"),
    Mutant("dd guard", COHOMOLOGY,
           "dd = None if q == n else", "dd = None if q >= n - 1 else"),
    Mutant("dd applied to whole pivots, whose d is 0", COHOMOLOGY,
           "apply(parts if p > k - p else image)", "apply(list(pivots.values()))"),
    Mutant("dd applied by the slot's own degree matrix", COHOMOLOGY,
           "d[k + 1].apply(parts if", "d[k].apply(parts if"),
    Mutant("dd applied to the del pivots", COHOMOLOGY,
           "apply(parts if p > k - p else image)", "apply(list(below.values()))",
           equivalent="the resumed del pivots span im del, and d of im del is delbar del "
                      "= -del delbar: the span of im del delbar, so the same rank"),
    Mutant("dd side rule flipped", COHOMOLOGY,
           "parts if p > k - p else image", "parts if p < k - p else image",
           equivalent="d of the del parts is minus d of the delbar parts, so either side "
                      "gives the same vectors up to sign, the same pivots and rank"),
    Mutant("dd from the del parts at every step", COHOMOLOGY,
           "parts if p > k - p else image", "parts",
           equivalent="d of the del parts is minus d of the delbar parts, so either side "
                      "gives the same vectors up to sign, the same pivots and rank"),
    Mutant("THEORIES terms", COHOMOLOGY,
           '("bott_chern", "h_bc", 1, ((-1, "stack", 0, 0), (-1, "dd", -1, -1))),',
           '("bott_chern", "h_bc", 1, ((-1, "stack", 0, 0), (-1, "dd", 0, 0))),'),
    Mutant("cells drop a key the rank list holds", COHOMOLOGY,
           "if key in slot)", "if key in slot and key[-1] < n)"),
    Mutant("cells without the key filter", COHOMOLOGY,
           "for sign, key in terms if key in slot)", "for sign, key in terms)"),
    Mutant("Betti formula", COHOMOLOGY,
           '(-1, ("total", k - 1))', '(-1, ("total", k + 1))'),
    Mutant("delta", COHOMOLOGY,
           "parts.append((-2 * base, tuple((-2 * s, i)", "parts.append((-1 * base, tuple((-1 * s, i)"),
    Mutant("lemma verdict", COHOMOLOGY,
           "witness = next((k for k, d in enumerate(table.delta) if d), None)",
           "witness = next((k for k, d in enumerate(table.delta) if d > 1), None)"),
    Mutant("positivity elimination", METRICS,
           "(p * s - x * u + y * v) // prev", "(p * s + x * u + y * v) // prev"),
    Mutant("Bareiss division by the previous pivot dropped", METRICS,
           "row[j] = (p * s - x * u + y * v) // prev, (p * t - x * v - y * u) // prev",
           "row[j] = p * s - x * u + y * v, p * t - x * v - y * u"),
    Mutant("del delbar component", METRICS,
           "if r < cut}", "if r >= cut}"),
    Mutant("(1,2) cut one row late", METRICS,
           "cut = slot_start(cs.n, cs.n, 3, 2)", "cut = slot_start(cs.n, cs.n, 3, 2) + 1"),
    Mutant("F's (1,1) slot start one slot off", METRICS,
           "start = slot_start(n, n, 2, 1)", "start = slot_start(n, n, 2, 0)"),
    Mutant("balanced power", METRICS,
           "range(3, 2 * cs.n - 1, 2)", "range(3, 2 * cs.n + 1, 2)"),
    Mutant("balanced power started at F, not dF", METRICS,
           "_, f, power = _d_of(cs, h)\n    for k in range(3, 2 * cs.n - 1, 2):",
           "_, f, _ = _d_of(cs, h)\n    power = f\n    for k in range(2, 2 * cs.n - 3, 2):"),
    Mutant("wedge-table sign ignored", ALGEBRA,
           "lands[s] = rows[element(mh, ma)], (-1) ** odd", "lands[s] = rows[element(mh, ma)], 1"),
    Mutant("wedge_row landing in the places of the wrong degree", ALGEBRA,
           "degree_basis(holo, anti, k + 2)[1]", "degree_basis(holo, anti, k + 1)[1]"),
    Mutant("conjugate's sign dropped in the triple Hermitian check", METRICS,
           "if cells[j][k] != (x, -y, d):", "if cells[j][k] != (x, y, d):"),
    Mutant("dF memo read for any structure", METRICS,
           "if of is None or of() is not cs:", "if of is None:"),
    Mutant("wedge reads F at the monomial's place, not the 2-form's", METRICS,
           "if s in f:\n                c, e = f[s]", "if place in f:\n                c, e = f[place]"),
    Mutant("mirror written without its conjugate", METRICS,
           "(x, y, den), (x, -y, den)", "(x, y, den), (x, y, den)"),
    Mutant("diagonal check of the shared constructor dropped", METRICS,
           "x, y, _ = cells[j][j]\n            if y or x <= 0:",
           "x, y, _ = cells[j][j]\n            if False:"),
    Mutant("one-sided dimension gate", METRICS,
           "if cs.n != h.n:", "if cs.n < h.n:"),
    Mutant("balanced without the positivity check", METRICS,
           "    _require_positive(h)\n    _, f, power", "    _, f, power"),
    Mutant("digit class widened to \\d", PARSER,
           'r"(-?)([0-9]*)(/?)([0-9]*)"', 'r"(-?)(\\d*)(/?)(\\d*)"'),
    Mutant("zero-denominator check dropped", PARSER,
           '        if not den:\n            self.error("malformed rational: zero denominator", m.start(4))\n',
           ""),
    Mutant("imaginary tail's sign flipped in the term builder", PARSER,
           '(-1 if sign == "-" else 1) * int(mag or 1)', '(1 if sign == "-" else -1) * int(mag or 1)'),
    Mutant("term pattern's zero-denominator guard dropped", PARSER,
           'r"0*[1-9][0-9]*"', 'r"[0-9]+"'),
    Mutant("a zero entry read as a literal", PARSER,
           "|(?!{zero})(?:(", "|(?:("),
    Mutant("a repeated binding name accepted by its pattern", PARSER,
           "if m is not None and m[1] not in values:", "if m is not None:"),
    Mutant("the template's end-of-text check dropped", PARSER,
           '    if pos < len(src):\n        error("trailing characters after \')\'", pos)\n', ""),
    Mutant("a template's minus separator read as a plus", PARSER,
           'sign = -1 if sep == "-" else 1', "sign = 1"),
    Mutant("a zero entry accepted after a sign", PARSER,
           "if merged is not None or not (pair or terms):", "if merged is not None or not pair:"),
    Mutant("the fallback scanner starts at the entry start, not the item start", PARSER,
           "        sc.pos = pos\n        zero = ", "        sc.pos = raw_entries[-1][0]\n        zero = "),
    Mutant("name branch admitting a w-term", PARSER,
           "((?!{w}){name})", "({name})"),
    Mutant("predicate literal with a signed tail", CATALOG,
           "sc.scan_gaussian(tail=False)", "sc.scan_gaussian()"),
    Mutant("curve's own form dropped", CATALOG,
           "    if own is not None and is_positive(own):\n        yield own\n", ""),
    Mutant("curve flags without the seeded sweep", CATALOG,
           "    yield from _sweep(n)\n", ""),
    Mutant("curve's own form tried when not positive", CATALOG,
           "if own is not None and is_positive(own):", "if own is not None:"),
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
