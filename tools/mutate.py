#!/usr/bin/env python3
"""Check that the test suite notices a change to each exactness rule.

Each entry of ``MUTANTS`` replaces one piece of source text (``old``, which
must occur exactly once in its file) with a wrong version (``new``). For each
entry the repository is copied to a temporary directory, the mutant is
applied there, and ``pytest -x -q`` runs the entry's mapped tests; only when
those pass does it run all of ``tests/``. A failing run kills the mutant. A
mutant that passes everything has survived, unless its entry says it is
equivalent (it cannot change any result), with the reason why.

    python3 tools/mutate.py

Prints killed, survived or equivalent and the time taken for each mutant.
Exits 0 when every mutant not marked equivalent is killed, 1 when one
survives or an equivalent one is killed, and 2 when an entry's ``old`` text
does not occur exactly once. Hypothesis runs with a fixed seed, so results
repeat. Needs only the standard library besides pytest and hypothesis.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

_IGNORED = shutil.ignore_patterns(".git", ".bench_out", "__pycache__", ".pytest_cache",
                                  ".hypothesis")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple
    reason: str
    equivalent: bool = False


_SENS = "src/lcoai/sensitivity.py"
_CORE = "src/lcoai/cost_core.py"
_CLI = "src/lcoai/cli_report.py"
_SCHEMA = "src/lcoai/schema.py"
_INGEST = "src/lcoai/ingest.py"
_ERRORS = "src/lcoai/errors.py"
_INIT = "src/lcoai/__init__.py"
_BREAK_EVEN = ("tests/test_sensitivity.py", "tests/test_kernel.py")
_ROUNDING = ("tests/test_money.py", "tests/test_cost_core.py")
_LIMITS = ("tests/test_limits.py",)

MUTANTS = (
    # the break-even driver and the search-exhausted limit
    Mutant(_SENS, "if diff(hi, lo, 1) < 0:", "if diff(hi, lo, 1) <= 0:", _BREAK_EVEN,
           "a tie at volume 1 is not yet a crossover"),
    Mutant(_SENS, "elif diff(hi, lo, search_max) >= 0:", "elif diff(hi, lo, search_max) > 0:",
           _BREAK_EVEN, "a tie at the search bound is domination, not a crossover"),
    Mutant(_SENS, "diff(ka, kb, search_max)) > (0, 0)", "diff(ka, kb, search_max)) >= (0, 0)",
           _BREAK_EVEN, "equal curves name the first scenario as the dominator"),
    Mutant(_SENS, "search_exhausted=_limit(hi) < _limit(lo))",
           "search_exhausted=_limit(hi) <= _limit(lo))", _BREAK_EVEN,
           "equal limits never cross, so the search is not exhausted"),
    Mutant(_SENS, "if diff(hi, lo, mid) < 0:", "if diff(hi, lo, mid) <= 0:", _BREAK_EVEN,
           "the bisection keeps a tie below the crossover"),
    Mutant(_SENS, "volume = (2 * d1 - d2) // (d1 - d2) + 1", "volume = (2 * d1 - d2) // (d1 - d2)",
           _BREAK_EVEN, "the closed form's crossover is strictly past the tie"),
    Mutant(_SENS, "elif hi.equal_weights and lo.equal_weights:",
           "elif hi.equal_weights or lo.equal_weights:", _BREAK_EVEN,
           "a pair takes the closed form only when both sides' weights are equal"),
    Mutant("src/lcoai/decision.py", "tuning_capex.amount // advantage + 1",
           "tuning_capex.amount // advantage", ("tests/test_decision.py",),
           "the fine-tune threshold is strictly past the tie"),
    Mutant(_SENS, "or len(kernel.volumes)", "or 1", ("tests/test_kernel.py",),
           "an all-zero projection tends to the uniform shape in the limit"),
    Mutant(_SENS, "ks = (1 - swing, 1 + swing)", "ks = (1 + swing, 1 - swing)",
           ("tests/test_sensitivity.py",), "tornado's low end is the (1 - swing) point"),
    # the O(1) volume point and the streamed sweep command
    Mutant(_CORE, "self.equal_weights = self.weights.count(self.weights[0]) == len(self.weights)",
           "self.equal_weights = True", ("tests/test_sweep_stream.py", "tests/test_kernel.py"),
           "only equal weights let a volume point skip the rescaled projection"),
    Mutant(_CLI, "for _ in range(0, len(points), SWEEP_CHUNK_ROWS):",
           "for _ in range(0, len(points) - SWEEP_CHUNK_ROWS + 1, SWEEP_CHUNK_ROWS):",
           ("tests/test_cli.py", "tests/test_sweep_stream.py"),
           "a sweep writes its final partial chunk"),
    # rounding
    Mutant(_CORE, "    if 2 * r >= d:", "    if 2 * r > d:", _ROUNDING,
           "micro-dollar ties round away from zero"),
    Mutant(_CORE, "total_opex = (2 * opex + scale) // (2 * scale)",
           "total_opex = (2 * opex + scale - 1) // (2 * scale)", _ROUNDING,
           "a total OPEX of exactly half a micro-dollar rounds up"),
    Mutant(_CORE, "rest == half and (q & 1 or root**k * den != scaled)", "rest == half and q & 1",
           _ROUNDING, "a root whose guard digits read exactly half is settled exactly"),
    Mutant(_CORE, "if life == HORIZON_LIFE or life >= total_months:",
           "if life == HORIZON_LIFE or life > total_months:", _ROUNDING,
           "an asset life equal to the horizon is spread uniformly, residual last"),
    Mutant(_CORE, "if life == HORIZON_LIFE or life <= months:",
           "if life == HORIZON_LIFE or life < months:", _ROUNDING,
           "at life == months the straight-line share micro * months / life is micro "
           "exactly, which _round_div returns unchanged", equivalent=True),
    Mutant(_INGEST, "per_period[bisect_right(edges, record.timestamp)]",
           "per_period[bisect_left(edges, record.timestamp)]", ("tests/test_ingest.py",),
           "a record at a period boundary belongs to the later period"),
    # each row of the README limits table
    Mutant(_CLI, "if count > MAX_SWEEP_POINTS:", "if count >= MAX_SWEEP_POINTS:",
           ("tests/test_cli.py",) + _LIMITS, "a grid of exactly the cap is built"),
    Mutant(_CORE, "if abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:",
           "if abs(value.adjusted()) >= MAX_DECIMAL_EXPONENT:",
           _LIMITS + ("tests/test_money.py", "tests/test_exact_ratio.py"),
           "an exponent of exactly the bound is read"),
    Mutant(_CORE, "if value.denominator > 10**MAX_DECIMAL_EXPONENT:",
           "if value.denominator >= 10**MAX_DECIMAL_EXPONENT:",
           _LIMITS + ("tests/test_cost_core.py", "tests/test_cli.py"),
           "an annual_rate or capex grid value with exactly the bound's decimal places is read"),
    Mutant(_SENS, "if search_max <= 0:", "if search_max < 0:",
           _LIMITS + ("tests/test_sensitivity.py",), "a search bound of 0 is refused"),
    Mutant(_SENS, "if search_max > MAX_SEARCH_MAX:", "if search_max >= MAX_SEARCH_MAX:",
           _LIMITS + ("tests/test_sensitivity.py",), "a search bound of exactly the maximum is read"),
    Mutant(_CORE, "self.horizon.months > MAX_DISCOUNTED_MONTHS",
           "self.horizon.months >= MAX_DISCOUNTED_MONTHS", _LIMITS + ("tests/test_cost_core.py",),
           "a discounted horizon of exactly the cap is computed"),
    Mutant(_SCHEMA, "except (RecursionError, ValueError) as exc:  # too deep, or too many digits",
           "except ValueError as exc:", _LIMITS,
           "a scenario file nested too deep exits 4, without a traceback"),
    Mutant(_SCHEMA, "except (RecursionError, ValueError) as exc:  # too deep, or too many digits",
           "except RecursionError as exc:", _LIMITS,
           "a scenario file with a 4,301-digit integer exits 4, without a traceback"),
    Mutant(_INGEST, "except (RecursionError, ValueError) as exc:  # too deep, or too many digits",
           "except ValueError as exc:", _LIMITS,
           "a telemetry line nested too deep is skipped"),
    Mutant(_INGEST, "except (RecursionError, ValueError) as exc:  # too deep, or too many digits",
           "except RecursionError as exc:", _LIMITS,
           "a telemetry line with a 4,301-digit integer is skipped"),
    # the decoder wording: a trailing comma reads the same on every Python
    Mutant(_ERRORS, 'kind = "array" if', 'kind = "object" if', ("tests/test_cli.py",),
           "a trailing comma before ] is named for an array"),
    Mutant(_ERRORS, 'doc.count("\\n", 0, comma) + 1)', 'doc.count("\\n", 0, comma))',
           ("tests/test_cli.py",), "lines are numbered from 1"),
    Mutant(_ERRORS, 'doc[:pos].rstrip(" \\t\\n\\r")', 'doc[:pos].rstrip(" \\n")',
           ("tests/test_cli.py",), "any JSON whitespace may stand between the comma and the bracket"),
    Mutant(_ERRORS, "comma = pos\n", "comma = pos + 1\n", ("tests/test_cli.py",),
           "Python 3.13 places its trailing-comma error at the comma"),
    # the lazy package surface
    Mutant(_INIT, '"load_scenarios": "schema",', '"load_scenarios": "cli_report",',
           ("tests/test_surface.py",), "the lazy table names the module that defines each name"),
    Mutant(_INIT, "    return getattr(_import_module(f\"{__name__}.{module}\"), name)\n",
           "    value = globals()[name] = getattr(_import_module(f\"{__name__}.{module}\"), name)\n"
           "    return value\n", ("tests/test_surface.py",),
           "a name is looked up in its submodule on every use, never kept in the package"),
    # the one whole-number reader of the command line
    Mutant(_CLI, "if denominator != 1:", "if denominator == 0:", ("tests/test_cli.py",),
           "a volume grid value of 1.5 is refused"),
    # the one integer rule
    Mutant(_CORE, "isinstance(value, int) and not isinstance(value, bool)",
           "isinstance(value, int)", ("tests/test_money.py", "tests/test_cost_core.py"),
           "a bool is not a count, an amount or a bound"),
)


def _pytest(tree: Path, paths) -> bool:
    """True when pytest passes on ``paths`` in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *paths]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=900)
    except subprocess.TimeoutExpired:  # a mutant that makes a test hang is caught too
        return False
    return done.returncode == 0


def run(mutant: Mutant) -> str:
    """killed, survived or equivalent, once the mutant is applied to a copy."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        path = tree / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
        if not _pytest(tree, mutant.tests) or not _pytest(tree, ["tests"]):
            return "killed"
    return "equivalent" if mutant.equivalent else "survived"


def main() -> int:
    misplaced = [m for m in MUTANTS
                 if (ROOT / m.file).read_text(encoding="utf-8").count(m.old) != 1]
    for m in misplaced:
        print(f"{m.file}: {m.old!r} does not occur exactly once", file=sys.stderr)
    if misplaced:
        return 2
    began = time.perf_counter()
    failures = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run(mutant)
        wrong = outcome == "survived" or outcome == "killed" and mutant.equivalent
        failures += wrong
        note = " (listed as equivalent)" if wrong and mutant.equivalent else ""
        print(f"{outcome:<10} {time.perf_counter() - start:6.1f} s  {mutant.file}: "
              f"{mutant.reason}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} not as listed, "
          f"{time.perf_counter() - began:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
