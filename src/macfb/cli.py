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
from .encoding import policy_to_csv
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


# the config section each subcommand reads, where its name differs
_SECTION_OF = {"oracle-check": "oracle_check", "diagnose-reduction": "diagnose"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="macfb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a YAML config document")
    common.add_argument("--preset", help="channel preset name (instead of --config)")
    common.add_argument(
        "--param", action="append", type=float, default=None,
        help="preset parameter, repeatable",
    )
    common.add_argument("--messages", help="message set sizes as 'm1,m2'")
    common.add_argument("--out", help="output file prefix")
    common.add_argument("--label", help="instance label used in reports")

    p = sub.add_parser("validate", parents=[common], help="check a config document")

    p = sub.add_parser("horizon", parents=[common], help="finite-horizon optimal value")
    p.add_argument("--n", type=int, help="horizon length")
    p.add_argument("--lambda", help="reward weights 'l1,l2,l3'")
    p.add_argument("--prune", action="store_true", default=None, help="merge equivalent actions")
    p.add_argument("--emit-policy", action="store_true", help="write <out>_policy.csv")
    p.add_argument("--emit-beliefs", action="store_true", help="write <out>_beliefs.csv")

    p = sub.add_parser("dsaht", parents=[common], help="minimum error probability")
    p.add_argument("--T", type=int, help="number of channel uses")
    p.add_argument("--emit-policy", action="store_true", help="write <out>_policy.csv")

    p = sub.add_parser("stationary", parents=[common], help="average-reward gain")
    p.add_argument("--lambda", help="reward weights 'l1,l2,l3'")
    p.add_argument("--grid", type=int, help="belief grid resolution")
    p.add_argument("--epsilon", type=float, help="span stopping threshold")
    p.add_argument("--max-iters", type=int, help="iteration cap")
    p.add_argument("--renewal", choices=("per_use", "none"), help="renewal mode")

    p = sub.add_parser("region", parents=[common], help="achievable-rate region sweep")
    p.add_argument("--n", type=int, help="horizon length per weight vector")
    p.add_argument("--sweep", type=int, help="minimum number of weight vectors")
    p.add_argument("--solver", choices=("horizon", "stationary"), help="bound solver")

    p = sub.add_parser(
        "oracle-check", parents=[common],
        help="compare the dynamic programs against exhaustive search",
    )
    p.add_argument("--n", type=int, help="horizon length")
    p.add_argument("--lambda", help="reward weights 'l1,l2,l3'")

    p = sub.add_parser(
        "diagnose-reduction", parents=[common],
        help="check whether distinct histories reuse the same belief",
    )
    p.add_argument("--n", type=int, help="horizon length")
    p.add_argument("--lambda", help="reward weights 'l1,l2,l3'")
    return parser


def _lay(doc: dict, key: str, flags: dict) -> None:
    """Lay the given flags over the mapping ``doc[key]``; a value that is not
    a mapping is left for ``parse_config`` to reject."""
    flags = {name: value for name, value in flags.items() if value is not None}
    raw = doc.get(key)
    if flags and (raw is None or isinstance(raw, dict)):
        doc[key] = {**(raw or {}), **flags}


def _config_from_args(args) -> RunConfig:
    """Validate the config document, or the one --preset and --messages
    describe, with the given flags laid over its keys: the top-level ones and
    those of the command's section."""
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
            "channel": {"preset": {"name": args.preset, "params": list(args.param or [])}},
            "messages": dict(zip(("m1", "m2"), sizes)),
        }
    if not isinstance(doc, dict):
        return parse_config(doc)  # rejects it
    if args.label:
        doc["label"] = args.label
    _lay(doc, "output", {"prefix": args.out or None})
    section = _SECTION_OF.get(args.command, args.command)
    flags = {key: getattr(args, key, None) for key in SECTION_DEFAULTS.get(section, ())}
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
    # after[hist]: the tables the action at hist refines, met before hist's children
    after, seen = {}, []
    for t, hist, pi, _, _, a, _ in dp.walk_policy(kernel, tree, root.pi.table):
        beta1, beta2 = after[hist[:-1]] if hist else (root.beta1, root.beta2)
        if a is not None:
            action = kernel.actions[a]
            after[hist] = (update_private(beta1, action.e1), update_private(beta2, action.e2))
        # the walker counts channel uses from 1; the file counts outputs seen
        seen.append((t - 1, hist, pi, beta1.rows, beta2.rows))
    seen.sort(key=lambda node: node[:2])
    lines = []
    for t, hist, pi, rows1, rows2 in seen:
        hist_str = "".join(str(y) for y in hist)
        lines.append(f"# t={t} history={hist_str}")
        lines.append("m1,m2,pi")
        for i in range(cfg.space.m1):
            for j in range(cfg.space.m2):
                lines.append(f"{i},{j},{pi[i, j]:.17g}")
        lines.append("i,m,mprime,beta")
        for sender, table in ((1, rows1), (2, rows2)):
            for m in range(table.shape[0]):
                for mp in range(table.shape[1]):
                    lines.append(f"{sender},{m},{mp},{table[m, mp]:.17g}")
    return "\n".join(lines) + "\n"


def _decoder_csv(decoder: dict) -> str:
    lines = ["history,m1,m2"]
    for hist in sorted(decoder):
        m1, m2 = decoder[hist]
        lines.append("".join(str(y) for y in hist) + f",{m1},{m2}")
    return "\n".join(lines) + "\n"


def _cmd_validate(cfg: RunConfig, args, result: dict) -> int:
    result["values"]["ok"] = True
    result["values"]["kernel_min"] = float(cfg.channel.kernel.min())
    result["values"]["has_prior"] = cfg.prior is not None
    return EXIT_OK


def _cmd_horizon(cfg: RunConfig, args, result: dict) -> int:
    sec = cfg.section("horizon")
    res = dp.solve_horizon(
        cfg.channel, cfg.space, _weights(sec), sec["n"],
        prior=_prior_joint(cfg), prune=sec["prune"],
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["params"] = {"n": sec["n"], "lambda": list(sec["lambda"]), "prune": sec["prune"]}
    result["values"] = {
        "total_value": res.total_value,
        "value_per_step": res.value_per_step,
        "states_expanded": res.states_expanded,
        "cache_hits": res.cache_hits,
    }
    # main has checked that an emit flag comes with an output prefix
    if args.emit_policy:
        path = f"{cfg.output_prefix}_policy.csv"
        atomic_write_text(path, policy_to_csv(res.policy))
        result["files"]["policy"] = path
    if args.emit_beliefs:
        path = f"{cfg.output_prefix}_beliefs.csv"
        atomic_write_text(path, _beliefs_csv(res.policy, cfg))
        result["files"]["beliefs"] = path
    return EXIT_OK


def _cmd_dsaht(cfg: RunConfig, args, result: dict) -> int:
    sec = cfg.section("dsaht")
    res = dp.solve_dsaht(
        cfg.channel, cfg.space, sec["T"], prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["params"] = {"T": sec["T"]}
    result["values"] = {
        "error_probability": res.error_probability,
        "states_expanded": res.states_expanded,
        "cache_hits": res.cache_hits,
    }
    if cfg.output_prefix:
        if args.emit_policy:
            path = f"{cfg.output_prefix}_policy.csv"
            atomic_write_text(path, policy_to_csv(res.policy))
            result["files"]["policy"] = path
        path = f"{cfg.output_prefix}_decoder.csv"
        atomic_write_text(path, _decoder_csv(res.decoder))
        result["files"]["decoder"] = path
    return EXIT_OK


def _cmd_stationary(cfg: RunConfig, args, result: dict) -> int:
    sec = cfg.section("stationary")
    res = dp.solve_stationary(
        cfg.channel, cfg.space, _weights(sec),
        resolution=sec["grid"], epsilon=sec["epsilon"], max_iters=sec["max_iters"],
        prior=_prior_joint(cfg), renewal=sec["renewal"],
        grid_cap=cfg.limits["grid_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["params"] = {"lambda": list(sec["lambda"]), "renewal": sec["renewal"]}
    # only renewal: none uses the grid and the iteration settings
    if sec["renewal"] == "none":
        result["params"].update(grid=sec["grid"], epsilon=sec["epsilon"], max_iters=sec["max_iters"])
    result["values"] = {
        "gain": res.gain,
        "iterations": res.iterations,
        "span_at_stop": res.span_at_stop,
        "converged": res.converged,
    }
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _cmd_region(cfg: RunConfig, args, result: dict) -> int:
    sec = cfg.section("region")
    est = region_mod.sweep(
        cfg.channel, cfg.space, sec["n"], sec["sweep"],
        solver=sec["solver"], prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["params"] = {"n": sec["n"], "sweep": sec["sweep"], "solver": sec["solver"]}
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


def _cmd_oracle_check(cfg: RunConfig, args, result: dict) -> int:
    sec = cfg.section("oracle_check")
    weights = _weights(sec)
    n = sec["n"]
    # each search runs before the solve it checks: a search over its
    # tree_cap or table_cap stops on its first step, before any DP work
    ex_h = oracle.exhaustive_Cn(
        cfg.channel, cfg.space, weights, n, prior=cfg.prior,
        tree_cap=cfg.limits["tree_cap"], action_cap=cfg.limits["action_cap"],
        table_cap=cfg.limits["table_cap"],
    )
    dp_h = dp.solve_horizon(
        cfg.channel, cfg.space, weights, n, prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    ex_d = oracle.exhaustive_min_error(
        cfg.channel, cfg.space, n, prior=cfg.prior,
        tree_cap=cfg.limits["tree_cap"], action_cap=cfg.limits["action_cap"],
        table_cap=cfg.limits["table_cap"],
    )
    dp_d = dp.solve_dsaht(
        cfg.channel, cfg.space, n, prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    rows = [
        (f"{cfg.label}:horizon", dp_h.value_per_step, ex_h[0]),
        (f"{cfg.label}:dsaht", dp_d.error_probability, ex_d[0]),
    ]
    result["params"] = {"n": n, "lambda": list(sec["lambda"])}
    result["values"] = {
        "horizon": {"dp": rows[0][1], "oracle": rows[0][2],
                    "abs_diff": abs(rows[0][1] - rows[0][2])},
        "dsaht": {"dp": rows[1][1], "oracle": rows[1][2],
                  "abs_diff": abs(rows[1][1] - rows[1][2])},
        "max_abs_diff": max(abs(r[1] - r[2]) for r in rows),
    }
    if cfg.output_prefix:
        lines = ["instance,dp_value,oracle_value,abs_diff"]
        for name, a, b in rows:
            lines.append(f"{name},{a:.17g},{b:.17g},{abs(a - b):.17g}")
        path = f"{cfg.output_prefix}_oracle.csv"
        atomic_write_text(path, "\n".join(lines) + "\n")
        result["files"]["oracle"] = path
    return EXIT_OK


def _cmd_diagnose(cfg: RunConfig, args, result: dict) -> int:
    sec = cfg.section("diagnose")
    rep = dp.reachability_diagnostic(
        cfg.channel, cfg.space, _weights(sec), sec["n"], prior=_prior_joint(cfg),
        node_cap=cfg.limits["node_cap"], action_cap=cfg.limits["action_cap"],
    )
    result["params"] = {"n": sec["n"], "lambda": list(sec["lambda"])}
    result["values"] = {
        "n_states": rep.n_states,
        "n_groups": rep.n_groups,
        "n_conflicts": len(rep.conflicts),
        "root_action_injective": rep.root_action_injective,
    }
    result["diagnostics"] = {"conflicts": rep.conflicts[:20]}
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "horizon": _cmd_horizon,
    "dsaht": _cmd_dsaht,
    "stationary": _cmd_stationary,
    "region": _cmd_region,
    "oracle-check": _cmd_oracle_check,
    "diagnose-reduction": _cmd_diagnose,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        emits = getattr(args, "emit_policy", False) or getattr(args, "emit_beliefs", False)
        if emits and not cfg.output_prefix:
            raise ValidationError("usage", "--emit-policy and --emit-beliefs need --out or output.prefix")
        result = _base_result(args.command, cfg)
        code = _HANDLERS[args.command](cfg, args, result)
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
