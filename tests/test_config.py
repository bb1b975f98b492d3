import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from macfb.config import SECTION_DEFAULTS, load_config, parse_config
from macfb.dp import solve_horizon, solve_stationary
from macfb.errors import ParseError, ValidationError
from macfb.oracle import exhaustive_Cn


def base_doc(**extra):
    doc = {
        "channel": {"preset": {"name": "adder"}},
        "messages": {"m1": 2, "m2": 2},
    }
    doc.update(extra)
    return doc


def test_minimal_preset_doc():
    cfg = parse_config(base_doc())
    assert cfg.label == "adder-2x2"
    assert cfg.space.pairs == 4
    assert cfg.prior is None
    assert cfg.preset_name == "adder"
    assert cfg.limits["tree_cap"] == 100_000


def test_defaults_match_solver_signatures():
    def defaults(fn):
        return {
            name: param.default
            for name, param in inspect.signature(fn).parameters.items()
            if param.default is not inspect.Parameter.empty
        }

    horizon, stationary, search = (
        defaults(solve_horizon), defaults(solve_stationary), defaults(exhaustive_Cn)
    )
    assert parse_config(base_doc()).limits == {
        "action_cap": horizon["action_cap"],
        "node_cap": horizon["node_cap"],
        "tree_cap": search["tree_cap"],
        "table_cap": search["table_cap"],
        "grid_cap": stationary["grid_cap"],
    }
    assert SECTION_DEFAULTS["stationary"]["epsilon"] == stationary["epsilon"]
    assert SECTION_DEFAULTS["stationary"]["max_iters"] == stationary["max_iters"]


def test_inline_kernel_doc():
    doc = {
        "channel": {
            "alphabets": {"x1": 1, "x2": 1, "y": 2},
            "kernel": [0.25, 0.75],
        },
        "messages": {"m1": 1, "m2": 1},
        "label": "coin",
    }
    cfg = parse_config(doc)
    assert cfg.label == "coin"
    assert cfg.preset_name is None
    assert np.allclose(cfg.channel.kernel[:, 0, 0], [0.25, 0.75])


def test_prior_parsing():
    cfg = parse_config(base_doc(prior=[0.4, 0.3, 0.2, 0.1]))
    assert cfg.prior.shape == (2, 2)
    assert cfg.prior[0, 1] == 0.3


def test_section_defaults_and_merge():
    cfg = parse_config(base_doc(horizon={"n": 3}))
    sec = cfg.section("horizon")
    assert sec["n"] == 3
    assert sec["lambda"] == (0.0, 0.0, 1.0)
    assert cfg.section("stationary")["renewal"] == "per_use"
    assert cfg.section("dsaht")["T"] == 1


def test_numeric_strings_accepted():
    # yaml renders a bare 1e-6 as a string; it must still count as a number
    cfg = parse_config(base_doc(stationary={"epsilon": "1e-6", "grid": "8"}))
    sec = cfg.section("stationary")
    assert sec["epsilon"] == 1e-6
    assert sec["grid"] == 8


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(surprise=1),
        lambda d: d.pop("channel"),
        lambda d: d.pop("messages"),
        lambda d: d.update(messages={"m1": 2}),
        lambda d: d.update(channel={"preset": {"name": "adder"}, "kernel": [1.0]}),
        lambda d: d.update(channel={"preset": {"name": "warp_drive"}}),
        lambda d: d.update(prior=[0.5, 0.5]),
        lambda d: d.update(prior=[0.5, 0.5, 0.5, 0.5]),
        lambda d: d.update(prior=[0.9, 0.2, -0.05, -0.05]),
        lambda d: d.update(horizon={"lambda": [1.0, 2.0]}),
        lambda d: d.update(horizon={"lambda": [1.0, -1.0, 0.0]}),
        lambda d: d.update(horizon={"n": 1.5}),
        lambda d: d.update(horizon={"prune": "yes"}),
        lambda d: d.update(stationary={"epsilon": 0.0}),
        lambda d: d.update(stationary={"renewal": "weekly"}),
        lambda d: d.update(region={"solver": "guess"}),
        lambda d: d.update(region={"sweep": -1}),
        lambda d: d.update(limits={"tree_cap": 0}),
        lambda d: d.update(limits={"imagination_cap": 5}),
        lambda d: d.update(workers=0),
        lambda d: d.update(label=7),
        lambda d: d.update(output={"prefix": 9}),
        lambda d: d.update(horizon={"lamdba": [1, 0, 0]}),
        lambda d: d.update(dsaht={"prune": True}),
        lambda d: d.update(messages={"m1": float("inf"), "m2": 2}),
        lambda d: d.update(stationary={"epsilon": float("nan")}),
        # within config's old 1e-9 but off JointBelief's 1e-12, which every solver applies
        lambda d: d.update(prior=[0.25, 0.25, 0.25, 0.2500000005]),
        lambda d: d.update(horizon={"lambda": [float("inf"), 0, 1]}),
        lambda d: d.update(horizon={"lambda": [float("nan"), 0, 1]}),
    ],
)
def test_rejected_documents(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_kernel_length_check():
    doc = {
        "channel": {"alphabets": {"x1": 2, "x2": 2, "y": 2}, "kernel": [1.0, 0.0]},
        "messages": {"m1": 2, "m2": 2},
    }
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "label: demo\n"
        "channel:\n  preset: {name: bsc_p2p, params: [0.1]}\n"
        "messages: {m1: 2, m2: 1}\n"
        "stationary: {grid: 8}\n"
    )
    cfg = load_config(path)
    assert cfg.label == "demo"
    assert cfg.section("stationary")["grid"] == 8


def test_load_config_reports_yaml_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("label: demo\nchannel: [unclosed\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_empty_document_rejected(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("\n")
    with pytest.raises(ValidationError):
        load_config(path)


def test_readme_config_example_covers_the_schema():
    # the README's example document is valid and names every section key,
    # so the docs cannot drift from the schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    doc = yaml.safe_load(example)
    parse_config(doc)
    for name, defaults in SECTION_DEFAULTS.items():
        assert set(doc[name]) == set(defaults), name
