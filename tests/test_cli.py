import json
import re
import sys
import time

import numpy as np
import pytest

from macfb import cli
from macfb.belief import initial_state, update_augmented
from macfb.channel import MessageSpace, preset
from macfb.config import SECTION_DEFAULTS
from macfb.encoding import policy_from_csv
from macfb.errors import ImpossibleObservation

FAITHFUL_YAML = """\
label: faithful
channel:
  alphabets: {x1: 2, x2: 2, y: 4}
  kernel: [1, 0, 0, 0,
           0, 1, 0, 0,
           0, 0, 1, 0,
           0, 0, 0, 1]
messages: {m1: 2, m2: 2}
"""


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def test_validate_preset(capsys):
    code, doc = run_json(["validate", "--preset", "useless", "--messages", "2,2"], capsys)
    assert code == 0
    assert doc["values"] == {"ok": True, "kernel_min": 0.5, "has_prior": False}
    assert doc["label"] == "useless-2x2"
    assert doc["channel"]["alphabets"] == {"x1": 2, "x2": 2, "y": 2}


def test_validate_config_with_prior(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(
        "channel: {preset: {name: adder}}\n"
        "messages: {m1: 2, m2: 2}\n"
        "prior: [0.4, 0.3, 0.2, 0.1]\n"
    )
    code, doc = run_json(["validate", "--config", str(path)], capsys)
    assert code == 0
    assert doc["values"]["has_prior"] is True
    assert doc["config"]["prior"] == [0.4, 0.3, 0.2, 0.1]


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--preset", "warp_drive", "--messages", "2,2"],
        ["validate", "--preset", "adder"],
        ["validate", "--config", "/no/such/file.yaml"],
        ["horizon", "--preset", "adder", "--messages", "2,2", "--lambda", "1,2"],
        ["horizon", "--preset", "adder", "--messages", "2,2", "--n", "0"],
        ["validate", "--preset", "bsc_p2p", "--param", "1.5", "--messages", "2,1"],
        ["region", "--preset", "adder", "--messages", "2,2", "--sweep", "2"],
        ["validate", "--preset", "adder", "--messages", "2,2", "--workers", "0"],
        # zero sweeps used to print "span_at_stop": Infinity, which is not JSON
        ["stationary", "--preset", "adder", "--messages", "2,2", "--renewal", "none",
         "--grid", "2", "--max-iters", "0"],
        # adder takes no parameters; it used to drop them and echo them back
        ["validate", "--preset", "adder", "--param", "0.3", "--messages", "2,2"],
        # an infinite size used to end in an OverflowError traceback
        ["validate", "--preset", "useless", "--param", "inf", "--param", "2", "--param", "2",
         "--messages", "2,2"],
    ],
)
def test_config_errors_exit_one(argv, capsys):
    assert cli.main(argv) == 1


def test_solver_error_exits_two(tmp_path, capsys):
    # the search has 16 trees at n = 1; at n = 2 a tree's trajectory table
    # holds 4 message pairs x 3^2 output sequences = 36 entries
    path = tmp_path / "run.yaml"
    for limit, n in (("tree_cap: 1", "1"), ("table_cap: 1", "2")):
        path.write_text(
            "channel: {preset: {name: adder}}\n"
            "messages: {m1: 2, m2: 2}\n"
            f"limits: {{{limit}}}\n"
        )
        assert cli.main(["oracle-check", "--config", str(path), "--n", n]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["horizon", "--n", "20000"],
        ["horizon", "--n", "100000"],
        ["dsaht", "--T", "30000"],
        ["dsaht", "--T", "100000"],
        ["oracle-check", "--n", "9"],
        ["oracle-check", "--n", "17"],
        # about 10^4499 grid points
        ["stationary", "--renewal", "none", "--grid", "1" + "0" * 1500],
    ],
)
def test_cap_errors_print_any_count(argv, capsys):
    # counts of more than 4300 digits used to fail to print, exit 1; the
    # tree guards stop counting past the cap, so no count is that long
    start = time.perf_counter()
    assert cli.main(argv + ["--preset", "adder", "--messages", "2,2"]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "exceed the" in err and len(err) < 200


def test_a_flag_past_the_digit_limit_exits_1_briefly(capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no str -> int digit limit in this interpreter")
    argv = ["horizon", "--preset", "adder", "--messages", "2,2", "--n", "1" + "0" * (limit + 100)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "'horizon.n'" in err and f"got {limit + 101} digits" in err and len(err) < 200


def test_oracle_check_refuses_before_any_solve(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a dynamic program ran before the search cap check")

    monkeypatch.setattr(cli.dp, "solve_horizon", no_solve)
    monkeypatch.setattr(cli.dp, "solve_dsaht", no_solve)
    path = tmp_path / "run.yaml"
    path.write_text(
        "channel: {preset: {name: adder}}\n"
        "messages: {m1: 2, m2: 2}\n"
        "limits: {tree_cap: 1}\n"
    )
    assert cli.main(["oracle-check", "--config", str(path), "--n", "1"]) == 2


def test_workers_setting_is_rejected(tmp_path, capsys):
    argv = ["validate", "--preset", "adder", "--messages", "2,2"]
    assert cli.main(argv + ["--workers", "2"]) == 1
    path = tmp_path / "run.yaml"
    path.write_text(
        "channel: {preset: {name: adder}}\n"
        "messages: {m1: 2, m2: 2}\n"
        "workers: 2\n"
    )
    assert cli.main(["validate", "--config", str(path)]) == 1
    assert "'workers': unknown top-level key" in capsys.readouterr().err


def test_unknown_section_key_exits_one(tmp_path, capsys):
    # a typo'd weight key would otherwise leave the default weights in place
    path = tmp_path / "run.yaml"
    path.write_text(
        "channel: {preset: {name: adder}}\n"
        "messages: {m1: 2, m2: 2}\n"
        "horizon: {n: 2, lamdba: [1, 0, 0]}\n"
    )
    assert cli.main(["horizon", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "horizon.lamdba" in err


@pytest.mark.parametrize(
    "text, flags",
    [
        ("[1, 2]\n", ["--n", "1", "--label", "x"]),
        ("channel: {preset: {name: adder}}\nmessages: {m1: 2, m2: 2}\nhorizon: [1]\n", ["--n", "1"]),
        ("channel: {preset: {name: adder}}\nmessages: {m1: 2, m2: 2}\noutput: [1]\n", ["--out", "x"]),
    ],
)
def test_flags_on_a_non_mapping_exit_one(tmp_path, capsys, text, flags):
    # flags are laid only onto mappings; the rest is rejected as invalid
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert cli.main(["horizon", "--config", str(path), *flags]) == 1
    assert capsys.readouterr().out == ""


def test_flags_override_the_section(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(
        "channel: {preset: {name: adder}}\n"
        "messages: {m1: 2, m2: 2}\n"
        "horizon: {n: 2, lambda: [1, 0, 0]}\n"
    )
    code, doc = run_json(["horizon", "--config", str(path), "--lambda", "0, 0,1", "--prune"], capsys)
    assert code == 0
    assert doc["params"] == {"n": 2, "lambda": [0.0, 0.0, 1.0], "prune": True}


ADDER_YAML = "channel: {preset: {name: adder}}\nmessages: {m1: 2, m2: 2}\n"


@pytest.mark.parametrize(
    "command, key, text",
    [
        # int
        ("horizon", "n", "2"),
        ("horizon", "n", "2.0"),
        ("horizon", "n", "1.5"),
        ("horizon", "n", "-1"),
        ("horizon", "n", "two"),
        ("region", "sweep", "3"),
        ("stationary", "max_iters", "0"),
        # float
        ("stationary", "epsilon", "1e-3"),
        ("stationary", "epsilon", "0"),
        ("stationary", "epsilon", "nan"),
        ("stationary", "epsilon", "small"),
        # lambda
        ("horizon", "lambda", "0.3,0.3,0.4"),
        ("horizon", "lambda", "1,2"),
        ("horizon", "lambda", "-1,1,1"),
        ("horizon", "lambda", "a,b,c"),
        # choice
        ("stationary", "renewal", "none"),
        ("stationary", "renewal", "bogus"),
        ("region", "solver", "stationary"),
        ("region", "solver", "guess"),
    ],
)
def test_a_flag_and_a_document_key_are_judged_alike(tmp_path, capsys, command, key, text):
    # the flag passes its text on, and the document holds the same text:
    # quoted, it must give the same exit code, output and message; bare, as
    # YAML reads it, the same exit code and output, or an error naming the
    # same field
    def outcome(body, *flags):
        path = tmp_path / "run.yaml"
        path.write_text(ADDER_YAML + body)
        code = cli.main([command, "--config", str(path), *flags])
        return (code, *capsys.readouterr())

    flag = outcome("", f"--{key.replace('_', '-')}={text}")
    value = text.split(",") if key == "lambda" else text
    assert outcome(f"{command}: {{{key}: {json.dumps(value)}}}\n") == flag
    bare = outcome(f"{command}: {{{key}: {f'[{text}]' if key == 'lambda' else text}}}\n")
    if flag[0] == 1:
        field = f"error: invalid field '{command}.{key}': "
        assert flag[2].startswith(field) and bare[:2] == (1, "") and bare[2].startswith(field)
    else:
        assert bare == flag and flag[0] == 0


def test_a_switch_and_a_document_bool_are_judged_alike(tmp_path, capsys):
    base = tmp_path / "base.yaml"
    base.write_text(ADDER_YAML)
    doc = tmp_path / "doc.yaml"
    for value, flags in ((True, ["--prune"]), (False, [])):
        doc.write_text(ADDER_YAML + f"horizon: {{n: 2, prune: {json.dumps(value)}}}\n")
        code, out = run(["horizon", "--config", str(base), "--n", "2", *flags], capsys)
        assert code == 0 and json.loads(out)["params"]["prune"] is value
        assert run(["horizon", "--config", str(doc)], capsys) == (code, out)


@pytest.mark.parametrize(
    "command, section, extra",
    [
        ("validate", None, []),
        ("horizon", "horizon", ["--emit-policy", "--emit-beliefs"]),
        ("dsaht", "dsaht", ["--emit-policy"]),
        ("stationary", "stationary", []),
        ("region", "region", []),
        ("oracle-check", "oracle_check", []),
        ("diagnose-reduction", "diagnose", []),
    ],
)
def test_help_lists_the_section_keys(monkeypatch, capsys, command, section, extra):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    keys = list(SECTION_DEFAULTS.get(section, ()))
    assert re.findall(r"  (\w+)\.(\w+) \(default ", text) == [(section, key) for key in keys]
    flags = {"--help", "--config", "--preset", "--param", "--messages", "--out", "--label", *extra}
    flags |= {"--" + key.replace("_", "-") for key in keys}
    assert set(re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.M)) == flags


def test_horizon_json_and_artifacts(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, out = run(
        [
            "horizon", "--preset", "adder", "--messages", "2,2",
            "--n", "1", "--lambda", "0,0,1",
            "--emit-policy", "--emit-beliefs", "--out", str(prefix),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["total_value"] == pytest.approx(1.5, abs=1e-12)
    assert doc["params"] == {"n": 1, "lambda": [0.0, 0.0, 1.0], "prune": False}
    # the result file holds exactly what was printed
    assert (tmp_path / "run.json").read_text() == out

    tree = policy_from_csv((tmp_path / "run_policy.csv").read_text(), preset("adder").alphabets)
    assert tree.depth == 1

    beliefs = (tmp_path / "run_beliefs.csv").read_text().splitlines()
    assert beliefs[0] == "# t=0 history="
    assert beliefs[1] == "m1,m2,pi"
    assert beliefs[2] == "0,0,0.25"
    assert "i,m,mprime,beta" in beliefs


def _belief_blocks(text: str) -> dict:
    """(t, history) -> the lines of the m1,m2,pi block and of each sender's
    i,m,mprime,beta block."""
    blocks, lines = {}, None
    for line in text.splitlines():
        if line.startswith("# t="):
            t, hist = line[len("# t="):].split(" history=")
            blocks[(int(t), tuple(int(ch) for ch in hist))] = lines = {}
        elif line in ("m1,m2,pi", "i,m,mprime,beta"):
            lines[line] = []
        else:
            lines[list(lines)[-1]].append(line)
    return blocks


def test_belief_file_below_the_root_matches_update_augmented(tmp_path, capsys):
    # every node's common belief and private tables, written below the root
    # too, are the .17g text of what update_augmented (update_joint on the
    # common belief) gives along the node's history; the walks reach 13,
    # 40, 121 and 7 nodes
    cases = [
        # a non-product prior with a zero-mass message of sender 2
        ("noisy_adder", [0.1], 2, 3, [0.3, 0.0, 0.2, 0.1, 0.0, 0.4], 2),
        ("noisy_adder", [0.1], 2, 2, [0.1, 0.2, 0.3, 0.4], 3),
        ("noisy_adder", [0.05], 2, 2, None, 4),
        ("multiplier", [], 2, 3, [0.25, 0.05, 0.1, 0.2, 0.3, 0.1], 2),
    ]
    for name, params, m1, m2, prior, n in cases:
        path = tmp_path / "run.yaml"
        path.write_text(
            f"channel: {{preset: {{name: {name}, params: {params}}}}}\n"
            f"messages: {{m1: {m1}, m2: {m2}}}\n"
            f"prior: {'null' if prior is None else prior}\n"
        )
        prefix = tmp_path / "run"
        code, _ = run(
            ["horizon", "--config", str(path), "--n", str(n), "--lambda", "0.3,0.3,0.4",
             "--emit-policy", "--emit-beliefs", "--out", str(prefix)],
            capsys,
        )
        assert code == 0
        ch = preset(name, tuple(params))
        tree = policy_from_csv((tmp_path / "run_policy.csv").read_text(), ch.alphabets)
        blocks = _belief_blocks((tmp_path / "run_beliefs.csv").read_text())

        want = {}
        stack = [((), initial_state(MessageSpace(m1, m2), None if prior is None else np.reshape(prior, (m1, m2))))]
        while stack:
            hist, state = stack.pop()
            want[(len(hist), hist)] = {
                "m1,m2,pi": [f"{i},{j},{state.pi.table[i, j]:.17g}" for i in range(m1) for j in range(m2)],
                "i,m,mprime,beta": [
                    f"{sender},{m},{mp},{table.rows[m, mp]:.17g}"
                    for sender, table in ((1, state.beta1), (2, state.beta2))
                    for m in range(table.n_messages)
                    for mp in range(table.n_messages)
                ],
            }
            if len(hist) < tree.depth:
                for y in range(ch.n_outputs):
                    try:
                        stack.append((hist + (y,), update_augmented(state, tree.action_at(hist), y, ch)))
                    except ImpossibleObservation:
                        pass
        assert any(t == n for t, _ in want)
        assert blocks == want


def test_dsaht_decoder_artifact(tmp_path, capsys):
    path = tmp_path / "faithful.yaml"
    path.write_text(FAITHFUL_YAML)
    prefix = tmp_path / "d"
    code, doc = run_json(
        ["dsaht", "--config", str(path), "--T", "1", "--out", str(prefix), "--emit-policy"],
        capsys,
    )
    assert code == 0
    assert doc["values"]["error_probability"] == 0.0
    decoder = (tmp_path / "d_decoder.csv").read_text()
    assert decoder == "history,m1,m2\n0,0,0\n1,0,1\n2,1,0\n3,1,1\n"
    assert (tmp_path / "d_policy.csv").exists()


# the useless channel with 11 outputs, every one of them reached
ELEVEN_OUTPUTS = ["--preset", "useless", "--param", "2", "--param", "2", "--param", "11", "--messages", "2,2"]


@pytest.mark.parametrize("emits", [[], ["--emit-policy"]])
def test_decoder_file_refuses_outputs_above_nine(tmp_path, capsys, emits):
    # (1, 0, 10) and (10, 1, 0) would both be written as history 1010
    prefix = tmp_path / "d"
    code = cli.main(["dsaht", *ELEVEN_OUTPUTS, "--T", "3", "--out", str(prefix), *emits])
    assert code == 1
    assert "digit-string serialisation supports alphabet sizes up to 10" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_belief_file_refuses_outputs_above_nine(tmp_path, capsys):
    # at n = 1 the policy file holds the empty history alone and is
    # written; the belief file's histories of one output are refused,
    # and then neither file is written
    prefix = tmp_path / "h"
    code = cli.main(["horizon", *ELEVEN_OUTPUTS, "--n", "1", "--out", str(prefix), "--emit-policy"])
    assert code == 0 and (tmp_path / "h_policy.csv").exists()
    for path in tmp_path.iterdir():
        path.unlink()
    capsys.readouterr()
    code = cli.main(["horizon", *ELEVEN_OUTPUTS, "--n", "1", "--out", str(prefix),
                     "--emit-policy", "--emit-beliefs"])
    assert code == 1
    assert "digit-string serialisation supports alphabet sizes up to 10" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stationary_not_converged_exit_three(tmp_path, capsys):
    prefix = tmp_path / "s"
    code, doc = run_json(
        [
            "stationary", "--preset", "bsc_p2p", "--param", "0.1",
            "--messages", "2,1", "--max-iters", "1", "--renewal", "none",
            "--out", str(prefix),
        ],
        capsys,
    )
    assert code == 3
    assert doc["values"]["converged"] is False
    assert (tmp_path / "s.json").exists()


def test_stationary_renewal_flag(capsys):
    code, doc = run_json(
        [
            "stationary", "--preset", "bsc_p2p", "--param", "0",
            "--messages", "2,1", "--renewal", "none", "--grid", "8",
        ],
        capsys,
    )
    assert code == 0
    assert doc["params"]["renewal"] == "none"
    assert sorted(doc["params"]) == ["epsilon", "grid", "lambda", "max_iters", "renewal"]
    assert doc["values"]["gain"] == pytest.approx(0.0, abs=1e-9)


def test_stationary_per_use_params_omit_grid_settings(capsys):
    # per_use is solved exactly without a grid, so the grid and iteration
    # settings would only echo options that changed nothing
    code, doc = run_json(
        [
            "stationary", "--preset", "bsc_p2p", "--param", "0.1",
            "--messages", "2,1", "--grid", "8", "--max-iters", "3",
        ],
        capsys,
    )
    assert code == 0
    assert doc["params"] == {"lambda": [0.0, 0.0, 1.0], "renewal": "per_use"}
    assert doc["values"]["gain"] == pytest.approx(0.5310044064107188, abs=1e-12)


def test_region_artifacts(tmp_path, capsys):
    prefix = tmp_path / "r"
    code, doc = run_json(
        [
            "region", "--preset", "useless", "--messages", "2,2",
            "--n", "1", "--sweep", "3", "--out", str(prefix),
        ],
        capsys,
    )
    assert code == 0
    assert doc["values"]["degenerate"] is True
    assert doc["values"]["vertices"] == [[0.0, 0.0]]
    assert (tmp_path / "r_vertices.csv").read_text() == "R1,R2\n0,0\n"
    assert (tmp_path / "r_halfplanes.csv").read_text().splitlines()[0] == (
        "lambda1,lambda2,lambda3,bound"
    )


def test_oracle_check_csv(tmp_path, capsys):
    prefix = tmp_path / "oc"
    code, doc = run_json(
        [
            "oracle-check", "--preset", "multiplier", "--messages", "2,2",
            "--n", "1", "--out", str(prefix), "--label", "mult",
        ],
        capsys,
    )
    assert code == 0
    assert doc["values"]["max_abs_diff"] <= 1e-9
    lines = (tmp_path / "oc_oracle.csv").read_text().splitlines()
    assert lines[0] == "instance,dp_value,oracle_value,abs_diff"
    assert lines[1].startswith("mult:horizon,")
    assert lines[2].startswith("mult:dsaht,")
    # each row's numbers are its program's JSON values, to the bit
    for line, program in zip(lines[1:], ("horizon", "dsaht")):
        values = doc["values"][program]
        assert [float(v) for v in line.split(",")[1:]] == [values["dp"], values["oracle"], values["abs_diff"]]
    assert doc["values"]["max_abs_diff"] == max(doc["values"][p]["abs_diff"] for p in ("horizon", "dsaht"))


def test_diagnose_json(capsys):
    code, doc = run_json(
        ["diagnose-reduction", "--preset", "adder", "--messages", "2,2", "--n", "1"],
        capsys,
    )
    assert code == 0
    assert doc["values"]["n_conflicts"] == 0
    assert doc["values"]["root_action_injective"] is True
    assert doc["diagnostics"]["conflicts"] == []


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    argv = [
        "horizon", "--preset", "adder", "--messages", "2,2",
        "--n", "2", "--label", "pin",
    ]
    first = run(argv + ["--out", str(tmp_path / "a" / "pin")], capsys)
    second = run(argv + ["--out", str(tmp_path / "b" / "pin")], capsys)
    assert first == second
    assert (tmp_path / "a" / "pin.json").read_bytes() == (
        tmp_path / "b" / "pin.json"
    ).read_bytes()


def test_dsaht_json_reports_counters(capsys):
    code, doc = run_json(["dsaht", "--preset", "adder", "--messages", "2,2", "--T", "2"], capsys)
    assert code == 0
    assert doc["values"] == {"error_probability": 0.0, "states_expanded": 12, "cache_hits": 21}


@pytest.mark.parametrize(
    "doc, commands",
    [
        # a NaN kernel column used to validate, and to solve to NaN or 0.25
        ("channel:\n  alphabets: {x1: 2, x2: 1, y: 2}\n  kernel: [.nan, .5, .5, .5]\n"
         "messages: {m1: 2, m2: 1}\n", ("validate", "horizon", "dsaht")),
        # a NaN prior entry used to solve to NaN or 0.0
        ("channel: {preset: {name: adder}}\nmessages: {m1: 2, m2: 2}\n"
         "prior: [.nan, .5, .25, .25]\n", ("validate", "horizon", "dsaht")),
    ],
)
def test_nan_in_a_config_exits_one(tmp_path, capsys, doc, commands):
    path = tmp_path / "run.yaml"
    path.write_text(doc)
    for command in commands:
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["horizon", "--emit-policy"],
        ["horizon", "--emit-beliefs"],
        ["horizon", "--emit-policy", "--emit-beliefs"],
        ["dsaht", "--emit-policy"],
    ],
)
def test_emit_without_an_output_prefix_is_a_usage_error(argv, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the usage check")

    monkeypatch.setattr(cli.dp, "solve_horizon", no_solve)
    monkeypatch.setattr(cli.dp, "solve_dsaht", no_solve)
    assert cli.main(argv + ["--preset", "adder", "--messages", "2,2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "need --out or output.prefix" in err


def test_emit_under_the_config_output_prefix(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(
        "channel: {preset: {name: adder}}\n"
        "messages: {m1: 2, m2: 2}\n"
        f"output: {{prefix: {tmp_path / 'cfg'}}}\n"
    )
    code, doc = run_json(["dsaht", "--config", str(path), "--emit-policy"], capsys)
    assert code == 0
    assert doc["files"]["policy"] == f"{tmp_path / 'cfg'}_policy.csv"
    assert (tmp_path / "cfg_policy.csv").exists()
