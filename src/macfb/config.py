"""Run configuration: one structured document drives every subcommand.

The document is YAML (JSON works too); floats keep full double precision.
Layout:

    label: adder-2x2                # optional instance id used in reports
    channel:
      preset: {name: adder, params: []}
      # or an inline kernel:
      # alphabets: {x1: 2, x2: 2, y: 3}
      # kernel: [...]               # row-major [y][x1][x2]
    messages: {m1: 2, m2: 2}
    prior: [...]                    # optional, row-major [m1][m2]
    horizon:    {n: 2, lambda: [0, 0, 1], prune: false}
    dsaht:      {T: 2}
    stationary: {lambda: [0, 0, 1], grid: 16, epsilon: 1.0e-6,
                 max_iters: 500, renewal: per_use}
    region:     {n: 1, sweep: 6, solver: horizon}
    oracle_check: {n: 2, lambda: [0, 0, 1]}
    diagnose:   {n: 2, lambda: [0, 0, 1]}
    limits:     {action_cap: ..., node_cap: ..., tree_cap: ...,
                 table_cap: ..., grid_cap: ...}
    output:     {prefix: out/run}

Unknown keys are rejected, at the top level and inside every section, so
typos fail loudly instead of being silently ignored; ``SECTION_DEFAULTS``
lists every key a section has. Command-line flags are laid over the keys of
the document before ``parse_config`` runs, so they face the same checks.
Every count meets one check, ``_as_count``: a whole number, never a bool,
of at least 0 for ``T``, 3 for ``sweep`` and 1 for the other section
counts, each limit, the message counts and the alphabet sizes; a refused
count raises a ``ValidationError`` naming its field. ``limits.table_cap``
caps the trajectory table of each tree the ``oracle-check`` search
evaluates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import dp, encoding, oracle, region
from .belief import JointBelief
from .channel import Channel, MessageSpace, preset, validate_channel, PRESET_NAMES
from .errors import ParseError, ValidationError
from .reward import LambdaWeights

# every default is owned by the module whose solver reads it
_DEFAULT_LIMITS = {
    "action_cap": encoding.DEFAULT_ACTION_CAP,
    "node_cap": dp.DEFAULT_NODE_CAP,
    "tree_cap": oracle.DEFAULT_TREE_CAP,
    "table_cap": oracle.DEFAULT_TABLE_CAP,
    "grid_cap": dp.DEFAULT_GRID_CAP,
}

SECTION_DEFAULTS = {
    "horizon": {"n": 1, "lambda": (0.0, 0.0, 1.0), "prune": False},
    "dsaht": {"T": 1},
    "stationary": {
        "lambda": (0.0, 0.0, 1.0),
        "grid": 16,
        "epsilon": dp.DEFAULT_STATIONARY_EPSILON,
        "max_iters": dp.DEFAULT_STATIONARY_ITERS,
        "renewal": "per_use",
    },
    "region": {"n": 1, "sweep": 3, "solver": "horizon"},
    "oracle_check": {"n": 1, "lambda": (0.0, 0.0, 1.0)},
    "diagnose": {"n": 1, "lambda": (0.0, 0.0, 1.0)},
}

_TOP_KEYS = {
    "label", "channel", "messages", "prior", *SECTION_DEFAULTS, "limits", "output",
}


@dataclass
class RunConfig:
    channel: Channel
    space: MessageSpace
    prior: np.ndarray | None
    label: str
    preset_name: str | None
    preset_params: tuple
    sections: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)
    output_prefix: str | None = None

    def section(self, name: str) -> dict:
        merged = dict(SECTION_DEFAULTS[name])
        merged.update(self.sections.get(name, {}))
        return merged


def _as_count(value, fieldname: str, least: int = 1) -> int:
    """``value`` as a whole number of at least ``least``, or a
    ``ValidationError`` naming ``fieldname``."""
    if isinstance(value, bool):
        raise ValidationError(fieldname, f"expected an integer, got {value!r}")
    count = value if isinstance(value, int) else None
    if isinstance(value, str):
        # whole-number digits exactly, past 2^53 too; "2.0" or "1e3" below
        try:
            count = int(value)
        except ValueError:
            # int() refuses more digits than the interpreter's limit
            digits = value.strip().lstrip("+-").replace("_", "")
            limit = sys.get_int_max_str_digits()
            if digits.isdecimal() and limit and len(digits) > limit:
                raise ValidationError(
                    fieldname, f"expected an integer of at most {limit} digits, got {len(digits)} digits"
                ) from None
    if count is None:
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            raise ValidationError(fieldname, f"expected an integer, got {value!r}") from None
        if not as_float.is_integer():
            raise ValidationError(fieldname, f"expected an integer, got {value!r}")
        count = int(as_float)
    if count < least:
        reason = {0: "must be non-negative", 1: "must be positive"}.get(least, f"must be at least {least}")
        raise ValidationError(fieldname, reason)
    return count


def _as_float(value, fieldname: str) -> float:
    # note: yaml reads bare "1e-6" as a string, so accept numeric strings
    if isinstance(value, bool):
        raise ValidationError(fieldname, f"expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(fieldname, f"expected a number, got {value!r}") from None


def _as_lambda(value, fieldname: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValidationError(fieldname, "expected three weights [l1, l2, l3]")
    out = tuple(_as_float(v, fieldname) for v in value)
    try:
        return LambdaWeights(*out).as_tuple()
    except ValueError as exc:
        raise ValidationError(fieldname, str(exc)) from None


def _channel_from(doc: dict) -> tuple:
    spec = doc.get("channel")
    if not isinstance(spec, dict):
        raise ValidationError("channel", "missing or not a mapping")
    has_preset = "preset" in spec
    has_kernel = "kernel" in spec
    if has_preset == has_kernel:
        raise ValidationError("channel", "give exactly one of preset or kernel")
    if has_preset:
        p = spec["preset"]
        if not isinstance(p, dict) or "name" not in p:
            raise ValidationError("channel.preset", "expected {name, params}")
        name = p["name"]
        if name not in PRESET_NAMES:
            raise ValidationError("channel.preset.name", f"unknown preset {name!r}")
        params = tuple(
            _as_float(v, "channel.preset.params") for v in p.get("params", []) or []
        )
        return preset(name, params), name, params
    alph = spec.get("alphabets")
    if not isinstance(alph, dict) or set(alph) != {"x1", "x2", "y"}:
        raise ValidationError("channel.alphabets", "expected {x1, x2, y}")
    sx1, sx2, sy = (_as_count(alph[key], f"channel.alphabets.{key}") for key in ("x1", "x2", "y"))
    flat = spec["kernel"]
    if not isinstance(flat, list):
        raise ValidationError("channel.kernel", "expected a flat list of reals")
    if len(flat) != sx1 * sx2 * sy:
        raise ValidationError(
            "channel.kernel",
            f"expected {sx1 * sx2 * sy} entries for [y][x1][x2], got {len(flat)}",
        )
    values = [_as_float(v, "channel.kernel") for v in flat]
    kernel = np.asarray(values, dtype=float).reshape(sy, sx1, sx2)
    return validate_channel(kernel), None, ()


def _prior_from(doc: dict, space: MessageSpace) -> np.ndarray | None:
    if "prior" not in doc or doc["prior"] is None:
        return None
    flat = doc["prior"]
    if not isinstance(flat, list):
        raise ValidationError("prior", "expected a flat list of reals")
    if len(flat) != space.pairs:
        raise ValidationError(
            "prior", f"expected {space.pairs} entries for [m1][m2], got {len(flat)}"
        )
    values = np.asarray([_as_float(v, "prior") for v in flat]).reshape(space.m1, space.m2)
    try:
        return JointBelief(values).table
    except ValueError as exc:
        raise ValidationError("prior", str(exc)) from None


def _validate_section(name: str, raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValidationError(name, "expected a mapping")
    unknown = set(raw) - set(SECTION_DEFAULTS[name])
    if unknown:
        raise ValidationError(f"{name}.{sorted(unknown)[0]}", "unknown key")
    out = dict(raw)
    if "lambda" in out:
        out["lambda"] = _as_lambda(out["lambda"], f"{name}.lambda")
    # the least value of each count, the one its solver accepts
    for key, least in {"n": 1, "T": 0, "grid": 1, "sweep": 3, "max_iters": 1}.items():
        if key in out:
            out[key] = _as_count(out[key], f"{name}.{key}", least)
    if "epsilon" in out:
        out["epsilon"] = _as_float(out["epsilon"], f"{name}.epsilon")
        if not out["epsilon"] > 0.0:  # NaN included
            raise ValidationError(f"{name}.epsilon", "must be positive")
    if "prune" in out:
        if not isinstance(out["prune"], bool):
            raise ValidationError(f"{name}.prune", "expected true or false")
    if "solver" in out and out["solver"] not in region.SOLVERS:
        raise ValidationError(f"{name}.solver", f"unknown solver {out['solver']!r}")
    if "renewal" in out and out["renewal"] not in dp.RENEWALS:
        raise ValidationError(f"{name}.renewal", f"unknown renewal mode {out['renewal']!r}")
    return out


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ValidationError("document", "top level must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown top-level key")

    channel, preset_name, preset_params = _channel_from(doc)

    msgs = doc.get("messages")
    if not isinstance(msgs, dict) or set(msgs) != {"m1", "m2"}:
        raise ValidationError("messages", "expected {m1, m2}")
    space = MessageSpace(_as_count(msgs["m1"], "messages.m1"), _as_count(msgs["m2"], "messages.m2"))

    prior = _prior_from(doc, space)

    sections = {name: _validate_section(name, doc.get(name)) for name in SECTION_DEFAULTS}

    limits = dict(_DEFAULT_LIMITS)
    raw_limits = {} if doc.get("limits") is None else doc["limits"]
    if not isinstance(raw_limits, dict):
        raise ValidationError("limits", "expected a mapping")
    for key, value in raw_limits.items():
        if key not in _DEFAULT_LIMITS:
            raise ValidationError(f"limits.{key}", "unknown limit")
        limits[key] = _as_count(value, f"limits.{key}")

    output = {} if doc.get("output") is None else doc["output"]
    if not isinstance(output, dict):
        raise ValidationError("output", "expected a mapping")
    prefix = output.get("prefix")
    if prefix is not None and not isinstance(prefix, str):
        raise ValidationError("output.prefix", "expected a string path prefix")

    label = doc.get("label")
    if label is None:
        label = preset_name or "inline"
        label = f"{label}-{space.m1}x{space.m2}"
    elif not isinstance(label, str):
        raise ValidationError("label", "expected a string")

    return RunConfig(
        channel=channel,
        space=space,
        prior=prior,
        label=label,
        preset_name=preset_name,
        preset_params=preset_params,
        sections=sections,
        limits=limits,
        output_prefix=prefix,
    )


class _Loader(yaml.SafeLoader):
    """yaml's safe loader, refusing an integer longer than the interpreter
    converts at the integer's own line rather than inside ``int()``."""

    def construct_yaml_int(self, node):
        try:
            return super().construct_yaml_int(node)
        except ValueError:
            limit, digits = sys.get_int_max_str_digits(), sum(ch.isdigit() for ch in node.value)
            problem = (f"expected an integer of at most {limit} digits, got {digits} digits"
                       if limit and digits > limit else f"not an integer: {node.value!r}")
            raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark) from None


_Loader.add_constructor("tag:yaml.org,2002:int", _Loader.construct_yaml_int)


def read_document(path):
    """Read a config document from disk, unvalidated."""
    text = Path(path).read_text()
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else 0
        reason = getattr(exc, "problem", None) or str(exc)
        raise ParseError(line, reason) from exc
    if doc is None:
        raise ValidationError("document", "config document is empty")
    return doc


def load_config(path) -> RunConfig:
    """Read and validate a config document from disk."""
    return parse_config(read_document(path))
