"""Command line front end.

Every subcommand reads the same config document (or a preset named inline),
prints one JSON result to stdout, and optionally writes files under an
output prefix.  Exit codes: 0 success, 1 bad configuration or usage,
2 solver failure, 3 stationary solve finished without converging (only
``renewal: none`` iterates; ``per_use`` is solved exactly).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dp, oracle, region as region_mod
from ._io import atomic_write_text
from .belief import JointBelief, initial_state, update_private
from .config import SECTION_DEFAULTS, RunConfig, parse_config, read_document
from .encoding import _digits, policy_to_csv
from .errors import ConfigError, SolverError, ValidationError
from .reward import LambdaWeights

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_NOT_CONVERGED = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems, not solver failures
    def error(self, message):
        raise ValidationError("usage", message)


def _build_parser() -> _Parser:
    """One subparser per command of ``_COMMANDS``: the flags every command
    shares, one flag per key of its config section and its emit flags.
    Section flags pass their text on unchecked, so ``parse_config`` judges
    a flag and a document key by one rule; a bool key is a switch."""
    parser = _Parser(prog="macfb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a YAML config document")
    common.add_argument("--preset", help="channel preset name (instead of --config)")
    common.add_argument("--param", action="append", help="preset parameter, repeatable")
    common.add_argument("--messages", help="message set sizes as 'm1,m2'")
    common.add_argument("--out", help="output file prefix")
    common.add_argument("--label", help="instance label used in reports")

    for command, (section, text, _, emits) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=text)
        for key, default in SECTION_DEFAULTS.get(section, {}).items():
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, default=None,
                action="store_true" if isinstance(default, bool) else "store",
                help=f"{section}.{key} (default {shown})",
            )
        for name in emits:
            p.add_argument(f"--emit-{name}", action="store_true", help=f"write <out>_{name}.csv")
    return parser


def _lay(doc: dict, key: str, flags: dict) -> None:
    """Lay the given flags over the mapping ``doc[key]``; a value that is not
    a mapping is left for ``parse_config`` to reject."""
    flags = {name: value for name, value in flags.items() if value is not None}
    raw = doc.get(key)
    if flags and (raw is None or isinstance(raw, dict)):
        doc[key] = {**(raw or {}), **flags}


def _config_from_args(args, section) -> RunConfig:
    """Validate the config document, or the one --preset and --messages
    describe, with the given flags laid over its keys: the top-level ones and
    those of ``section``."""
    if args.config:
        doc = read_document(args.config)
    else:
        if not args.preset or not args.messages:
            raise ValidationError(
                "usage", "give --config, or both --preset and --messages"
            )
        sizes = args.messages.split(",")
        if len(sizes) != 2:
            raise ValidationError("messages", "expected 2 comma-separated values")
        doc = {
            "channel": {"preset": {"name": args.preset, "params": args.param or []}},
            "messages": dict(zip(("m1", "m2"), sizes)),
        }
    if not isinstance(doc, dict):
        return parse_config(doc)  # rejects it
    if args.label:
        doc["label"] = args.label
    _lay(doc, "output", {"prefix": args.out or None})
    flags = {key: getattr(args, key) for key in SECTION_DEFAULTS.get(section, ())}
    if flags.get("lambda") is not None:
        flags["lambda"] = flags["lambda"].split(",")
    _lay(doc, section, flags)
    return parse_config(doc)


def _weights(section: dict) -> LambdaWeights:
    lam = section["lambda"]
    return LambdaWeights(lam[0], lam[1], lam[2])


def _prior_joint(cfg: RunConfig):
    if cfg.prior is None:
        return None
    return JointBelief(np.asarray(cfg.prior, dtype=float))


def _channel_doc(cfg: RunConfig) -> dict:
    a = cfg.channel.alphabets
    return {
        "preset": cfg.preset_name,
        "params": list(cfg.preset_params),
        "alphabets": {"x1": a.x1, "x2": a.x2, "y": a.y},
    }


def _base_result(command: str, cfg: RunConfig) -> dict:
    # the resolved configuration is echoed so result files are
    # self-describing
    prior = None if cfg.prior is None else [float(v) for v in cfg.prior.reshape(-1)]
    return {
        "command": command,
        "label": cfg.label,
        "channel": _channel_doc(cfg),
        "messages": {"m1": cfg.space.m1, "m2": cfg.space.m2},
        "config": {"prior": prior, "limits": dict(cfg.limits)},
        "values": {},
        "files": {},
    }


def _beliefs_csv(tree, cfg: RunConfig) -> str:
    root = initial_state(cfg.space, cfg.prior)
    kernel = dp.policy_kernel(cfg.channel, tree)
    # after[hist]: the tables the action at hist refines, read by hist's children
    after, lines = {}, []
    for level in dp.walk_policy(kernel, tree, root.pi.table):
        actions = [None] * len(level.mass) if level.a is None else [kernel.actions[a] for a in level.a]
        for hist, pi, action in zip(map(tuple, level.outputs.T.tolist()), np.moveaxis(level.pi, -1, 0), actions):
            beta1, beta2 = after[hist[:-1]] if hist else (root.beta1, root.beta2)
            if action is not None:
                after[hist] = (update_private(beta1, action.e1), update_private(beta2, action.e2))
            # the walker counts channel uses from 1; the file counts outputs seen
            lines += [f"# t={level.t - 1} history={_digits(hist)}", "m1,m2,pi"]
            lines += [f"{i},{j},{pi[i, j]:.17g}" for i, j in np.ndindex(pi.shape)]
            lines.append("i,m,mprime,beta")
            for sender, table in ((1, beta1.rows), (2, beta2.rows)):
                lines += [f"{sender},{m},{mp},{table[m, mp]:.17g}" for m, mp in np.ndindex(table.shape)]
    return "\n".join(lines) + "\n"


def _decoder_csv(decoder: dict) -> str:
    lines = ["history,m1,m2"]
    for hist in sorted(decoder):
        m1, m2 = decoder[hist]
        lines.append(f"{_digits(hist)},{m1},{m2}")
    return "\n".join(lines) + "\n"


def _write_csvs(cfg: RunConfig, result: dict, texts: dict) -> None:
    """Write every artifact ``<prefix>_<name>.csv`` of ``texts`` (name ->
    text) and list it in the result. The texts are rendered before any is
    written, so a file that refuses its contents leaves no file behind."""
    for name, text in texts.items():
        path = f"{cfg.output_prefix}_{name}.csv"
        atomic_write_text(path, text)
        result["files"][name] = path


def _cmd_validate(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    result["values"]["ok"] = True
    result["values"]["kernel_min"] = float(cfg.channel.kernel.min())
    result["values"]["has_prior"] = cfg.prior is not None
    return EXIT_OK


def _cmd_horizon(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    res = dp.solve_horizon(
        cfg.channel, cfg.space, _weights(sec), sec["n"],
        prior=_prior_joint(cfg), prune=sec["prune"],
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["values"] = {
        "total_value": res.total_value,
        "value_per_step": res.value_per_step,
        "states_expanded": res.states_expanded,
        "cache_hits": res.cache_hits,
    }
    render = {"policy": policy_to_csv, "beliefs": lambda tree: _beliefs_csv(tree, cfg)}
    _write_csvs(cfg, result, {name: render[name](res.policy) for name in emits})
    return EXIT_OK


def _cmd_dsaht(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    res = dp.solve_dsaht(
        cfg.channel, cfg.space, sec["T"], prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["values"] = {
        "error_probability": res.error_probability,
        "states_expanded": res.states_expanded,
        "cache_hits": res.cache_hits,
    }
    texts = {"policy": policy_to_csv(res.policy)} if "policy" in emits else {}
    if cfg.output_prefix:
        texts["decoder"] = _decoder_csv(res.decoder)
    _write_csvs(cfg, result, texts)
    return EXIT_OK


def _cmd_stationary(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    res = dp.solve_stationary(
        cfg.channel, cfg.space, _weights(sec),
        resolution=sec["grid"], epsilon=sec["epsilon"], max_iters=sec["max_iters"],
        prior=_prior_joint(cfg), renewal=sec["renewal"],
        grid_cap=cfg.limits["grid_cap"], action_cap=cfg.limits["action_cap"],
    )
    # only renewal: none uses the grid and the iteration settings
    if sec["renewal"] == "per_use":
        for key in ("grid", "epsilon", "max_iters"):
            del result["params"][key]
    result["values"] = {
        "gain": res.gain,
        "iterations": res.iterations,
        "span_at_stop": res.span_at_stop,
        "converged": res.converged,
    }
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _cmd_region(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    est = region_mod.sweep(
        cfg.channel, cfg.space, sec["n"], sec["sweep"],
        solver=sec["solver"], prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["values"] = {
        "n_halfplanes": len(est.halfplanes),
        "n_vertices": len(est.vertices),
        "degenerate": est.degenerate,
        "vertices": [[v[0], v[1]] for v in est.vertices],
        "halfplanes": [
            {"lambda": list(h.weights.as_tuple()), "bound": h.bound}
            for h in est.halfplanes
        ],
    }
    if cfg.output_prefix:
        paths = region_mod.export_region(est, cfg.output_prefix)
        result["files"]["halfplanes"] = str(paths[0])
        result["files"]["vertices"] = str(paths[1])
    return EXIT_OK


def _cmd_oracle_check(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    search_kw = {"prior": cfg.prior, "tree_cap": cfg.limits["tree_cap"],
                 "action_cap": cfg.limits["action_cap"], "table_cap": cfg.limits["table_cap"]}
    solve_kw = {"prior": _prior_joint(cfg), "node_cap": cfg.limits["node_cap"],
                "action_cap": cfg.limits["action_cap"]}
    # one (program, dp value, oracle value) record per program; each search
    # runs before the solve it checks: a search over its tree_cap or
    # table_cap stops on its first step, before any DP work
    records = []
    for program, search, solve, args, value in (
        ("horizon", oracle.exhaustive_Cn, dp.solve_horizon, (_weights(sec), sec["n"]), "value_per_step"),
        ("dsaht", oracle.exhaustive_min_error, dp.solve_dsaht, (sec["n"],), "error_probability"),
    ):
        best = search(cfg.channel, cfg.space, *args, **search_kw)[0]
        records.append((program, getattr(solve(cfg.channel, cfg.space, *args, **solve_kw), value), best))
    result["values"] = {program: {"dp": a, "oracle": b, "abs_diff": abs(a - b)} for program, a, b in records}
    result["values"]["max_abs_diff"] = max(abs(a - b) for _, a, b in records)
    if cfg.output_prefix:
        lines = ["instance,dp_value,oracle_value,abs_diff"]
        lines += [f"{cfg.label}:{program},{a:.17g},{b:.17g},{abs(a - b):.17g}" for program, a, b in records]
        _write_csvs(cfg, result, {"oracle": "\n".join(lines) + "\n"})
    return EXIT_OK


def _cmd_diagnose(cfg: RunConfig, sec: dict, emits: list, result: dict) -> int:
    rep = dp.reachability_diagnostic(
        cfg.channel, cfg.space, _weights(sec), sec["n"], prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["values"] = {
        "n_states": rep.n_states,
        "n_groups": rep.n_groups,
        "n_conflicts": len(rep.conflicts),
        "root_action_injective": rep.root_action_injective,
    }
    result["diagnostics"] = {"conflicts": rep.conflicts[:20]}
    return EXIT_OK


# command: (the config section its flags set, help line, handler, the
# artifacts it writes on request with --emit-<name>)
_COMMANDS = {
    "validate": (None, "check a config document", _cmd_validate, ()),
    "horizon": ("horizon", "finite-horizon optimal value", _cmd_horizon, ("policy", "beliefs")),
    "dsaht": ("dsaht", "minimum error probability", _cmd_dsaht, ("policy",)),
    "stationary": ("stationary", "average-reward gain", _cmd_stationary, ()),
    "region": ("region", "achievable-rate region sweep", _cmd_region, ()),
    "oracle-check": (
        "oracle_check", "compare the dynamic programs against exhaustive search",
        _cmd_oracle_check, (),
    ),
    "diagnose-reduction": (
        "diagnose", "check whether distinct histories reuse the same belief", _cmd_diagnose, (),
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        section, _, handler, emittable = _COMMANDS[args.command]
        cfg = _config_from_args(args, section)
        emits = [name for name in emittable if getattr(args, f"emit_{name}")]
        if emits and not cfg.output_prefix:
            raise ValidationError("usage", "--emit-policy and --emit-beliefs need --out or output.prefix")
        result = _base_result(args.command, cfg)
        sec = cfg.section(section) if section else {}
        if section:
            # the section as solved, lists where the settings hold tuples
            result["params"] = {key: list(v) if isinstance(v, tuple) else v for key, v in sec.items()}
        code = handler(cfg, sec, emits, result)
    except (ConfigError, ValueError, OSError) as exc:
        # solver ValueErrors flag parameter misuse (n < 1, sweep < 3, ...);
        # OSError covers unreadable config paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    text = json.dumps(result, sort_keys=True, indent=2)
    print(text)
    if cfg.output_prefix:
        atomic_write_text(f"{cfg.output_prefix}.json", text + "\n")
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
