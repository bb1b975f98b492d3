#!/usr/bin/env python3
"""Refresh the derived expectations in the case corpus.

Every "derived" value in cases/*.yaml is recomputed here and written back in
place; the case files are never edited by hand. Sources, in order of
preference:

  1. an oracle routine (exhaustive tree search, closed-form capacity),
  2. an analytic constant with a stated argument,
  3. the CLI itself, for purely behavioral fields (diagnostic counts,
     convergence flags, region geometry) that no oracle reproduces; these are
     regression pins, not independent checks.

Usage:
    python3 scripts/regen_expected.py            # rewrite in place
    python3 scripts/regen_expected.py --check    # exit 1 if anything is stale
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from macfb import examples  # noqa: E402
from macfb.channel import MessageSpace, preset  # noqa: E402
from macfb.oracle import exhaustive_Cn, exhaustive_min_error  # noqa: E402
from macfb.reward import LambdaWeights  # noqa: E402

L3 = LambdaWeights(0.0, 0.0, 1.0)


def _one_minus_h(p: float) -> float:
    # closed-form capacity of a binary symmetric channel, in bits
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


@functools.cache
def _adder_cn(n: int) -> float:
    value, _ = exhaustive_Cn(preset("adder"), MessageSpace(2, 2), L3, n)
    return value


@functools.cache
def _multiplier_cn(n: int) -> float:
    value, _ = exhaustive_Cn(preset("multiplier"), MessageSpace(2, 2), L3, n)
    return value


@functools.cache
def _adder_min_error(t: int) -> float:
    error, _ = exhaustive_min_error(preset("adder"), MessageSpace(2, 2), t)
    return error


@functools.cache
def _multiplier_min_error(t: int) -> float:
    error, _ = exhaustive_min_error(preset("multiplier"), MessageSpace(2, 2), t)
    return error


# (case label, dotted field) -> zero-argument source returning the fresh value;
# the searches are cached, so a quantity several fields read is computed once
ORACLE_SOURCES = {
    ("horizon-adder-n1", "values.total_value"): lambda: _adder_cn(1),
    ("horizon-adder-n1", "values.value_per_step"): lambda: _adder_cn(1),
    ("horizon-adder-n2", "values.total_value"): lambda: 2.0 * _adder_cn(2),
    ("horizon-adder-n2", "values.value_per_step"): lambda: _adder_cn(2),
    ("horizon-multiplier-n2", "values.value_per_step"): lambda: _multiplier_cn(2),
    ("dsaht-adder-T2", "values.error_probability"): lambda: _adder_min_error(2),
    ("stationary-bsc01", "values.gain"): lambda: _one_minus_h(0.1),
    ("stationary-bsc0", "values.gain"): lambda: _one_minus_h(0.0),
    # fixed message pair: total reward telescopes to the prior entropy,
    # so the long-run average is identically zero
    ("stationary-bsc0-no-renewal", "values.gain"): lambda: 0.0,
    ("oracle-multiplier-n2", "values.horizon.oracle"): lambda: _multiplier_cn(2),
    ("oracle-multiplier-n2", "values.dsaht.oracle"): lambda: _multiplier_min_error(2),
    # the entire point of the check: the dynamic program must match the oracle
    ("oracle-multiplier-n2", "values.max_abs_diff"): lambda: 0.0,
}

_VALUE_RE = re.compile(r"(value: )(.*?)(, (?:tol|provenance):)")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _rewrite(path: Path, field: str, new_value) -> bool:
    """Swap the value token on the expect line for `field`; True if changed."""
    lines = path.read_text().splitlines(keepends=True)
    changed = False
    for i, line in enumerate(lines):
        if f"field: {field}," not in line:
            continue
        match = _VALUE_RE.search(line)
        if match is None:
            raise SystemExit(f"{path.name}: could not locate value token for {field}")
        replacement = f"{match.group(1)}{_fmt(new_value)}{match.group(3)}"
        new_line = line[: match.start()] + replacement + line[match.end():]
        if new_line != line:
            lines[i] = new_line
            changed = True
    if changed:
        path.write_text("".join(lines))
    return changed


def _cli_actuals(case, cases_dir: Path, out_dir: Path) -> dict:
    outcomes, _ = examples.run_case(case, cases_dir, out_dir)
    return {o.field: o.actual for o in outcomes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="cases")
    parser.add_argument("--check", action="store_true",
                        help="report staleness without writing")
    args = parser.parse_args(argv)

    cases_dir = Path(args.cases)
    stale = 0
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        for case in examples.load_cases(cases_dir):
            pinned = None
            for exp in case.expects:
                if exp.provenance != "derived":
                    continue
                key = (case.label, exp.field)
                if key in ORACLE_SOURCES:
                    fresh = ORACLE_SOURCES[key]()
                    source = "oracle"
                else:
                    if pinned is None:
                        pinned = _cli_actuals(case, cases_dir, Path(scratch))
                    fresh = pinned[exp.field]
                    source = "cli-pin"
                _, matches = examples._compare(exp.value, fresh, exp.tol)
                rows.append((case.label, exp.field, source, exp.value, fresh, matches))
                if matches:
                    continue
                stale += 1
                if not args.check:
                    _rewrite(case.path, exp.field, fresh)

    width = max(len(r[0]) for r in rows)
    for label, fieldname, source, old, new, matches in rows:
        mark = "ok   " if matches else ("stale" if args.check else "WROTE")
        print(f"{mark}  {label:<{width}}  {fieldname}  [{source}]  {old!r} -> {new!r}")
    print(f"{len(rows)} derived expectations, {stale} stale")
    return 1 if (args.check and stale) else 0


if __name__ == "__main__":
    sys.exit(main())
