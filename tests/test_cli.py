import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from schubfactor import cli, verifier
from schubfactor.cli import main
from schubfactor.polynomial import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wset_orthogonal(capsys):
    code, out, _ = run(capsys, "wset", "--mu", "4,2", "--family", "orthogonal")
    assert code == 0
    assert out.split() == ["465321", "563421", "643521"]


def test_wset_json(capsys):
    code, out, _ = run(capsys, "wset", "--mu", "1,1", "--family", "orthogonal", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "orthogonal", "mu": [1, 1], "members": [[2, 1]]}


def test_wset_dot(capsys):
    code, out, _ = run(capsys, "wset", "--mu", "4,2", "--family", "orthogonal", "--dot")
    assert code == 0
    assert out.startswith('graph "orthogonal_mu_4,2" {')
    assert '"465321";' in out and out.rstrip().endswith("}")


def test_schubert_command(capsys):
    code, out, _ = run(capsys, "schubert", "--n", "3", "--perm", "321")
    assert code == 0
    assert out.strip() == "x1^2 x2"


def test_schubert_size_mismatch(capsys):
    code, _, err = run(capsys, "schubert", "--n", "4", "--perm", "321")
    assert code == 2
    assert "error" in err


def test_schubert_json(capsys):
    code, out, _ = run(capsys, "schubert", "--n", "3", "--perm", "132", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [
        {"exp": [["x2", 1]], "coeff": "1"},
        {"exp": [["x1", 1]], "coeff": "1"},
    ]
    assert Polynomial.from_json_dict(data).text() == "x1 + x2"


def test_formula_factored_and_expanded(capsys):
    code, out, _ = run(capsys, "formula", "--mu", "3,4", "--family", "orthogonal")
    assert code == 0
    assert out.strip() == "x1^5 x2^4 x3^4 x4 x5 (x1 + x2)(x4 + x5)(x4 + x6)"

    code, out, _ = run(capsys, "formula", "--mu", "4", "--family", "symplectic", "--expand")
    assert code == 0
    assert out.strip() == "x1^2 + x1 x2 + x1 x3 + x2 x3"


def test_equivariant_command(capsys):
    code, out, _ = run(capsys, "equivariant", "--mu", "2", "--family", "orthogonal")
    assert code == 0
    assert out.strip() == "2 (x1 - z1)"


@pytest.mark.parametrize(
    "command, mu, family, expected",
    [
        ("formula", "2,3", "orthogonal", "x1^4 x2^3 x3 (x3 + x4)"),
        ("formula", "4,2", "symplectic", "x1^2 x2^2 x3^2 x4^2 (x1 + x2)(x1 + x3)"),
        (
            "equivariant",
            "2,3",
            "orthogonal",
            "4 (x1 - z1)(x3 - z2)(x3 + x4 - 2 z2)(x1 - z2)(x1 - y2_1 - z2)(x1 + y2_1 - z2)"
            "(x2 - z2)(x2 - y2_1 - z2)(x2 + y2_1 - z2)",
        ),
        (
            "equivariant",
            "2,2",
            "symplectic",
            "(x1 - y2_1 - z2)(x1 + y2_1 - z2)(x2 - y2_1 - z2)(x2 + y2_1 - z2)",
        ),
    ],
)
def test_factored_class_grid(capsys, command, mu, family, expected):
    code, out, _ = run(capsys, command, "--mu", mu, "--family", family)
    assert code == 0
    assert out == expected + "\n"


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--mu", "3", "--family", "orthogonal", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "space": {"n": 3, "s": 1, "mu": [3]},
        "terms": [
            {"exp": [["x1", 1], ["x2", 1]], "coeff": "1"},
            {"exp": [["x1", 2]], "coeff": "1"},
        ],
    }


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "--mu", "4", "--family", "symplectic")
    assert code == 0
    assert out.splitlines() == ["1342: 1", "3124: 1"]


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--mu", "4", "--family", "symplectic", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "terms": [
            {"perm": [1, 3, 4, 2], "coeff": "1"},
            {"perm": [3, 1, 2, 4], "coeff": "1"},
        ],
    }


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "3,4", "--family", "orthogonal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["degree"] == 18
    assert data["support"] == 6
    assert data["ms"] is None


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "2,4", "--family", "symplectic")
    assert code == 0
    head, note = out.splitlines()
    assert re.fullmatch(r"symplectic mu=2,4: pass \(degree 10, support 2, [0-9]+\.[0-9] ms\)", head)
    assert note.startswith("  note: letter-order check: ascending-letter variant {123564, 125346} fails")


def test_verify_json_byte_identical(capsys):
    argv = ["verify", "--mu", "2,4", "--family", "symplectic", "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_emit_json_prints_json_dumps_in_batches(capsys):
    # 200000 list items are more chunks than one batch holds
    for obj in ({"terms": list(range(200000))}, {"n": 1, "terms": [{"perm": [1], "coeff": "1"}]}, []):
        cli._emit_json(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


def test_verify_timings_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--mu", "2", "--family", "orthogonal", "--format", "json", "--timings"
    )
    assert code == 0
    assert isinstance(json.loads(out)["ms"], float)


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "4", "--family", "orthogonal")
    assert code == 0
    assert "8 compositions: all pass" in out

    code, out, _ = run(capsys, "sweep", "--n", "4", "--family", "symplectic", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert len(data["reports"]) == 2


def test_usage_errors_exit_2(capsys):
    # odd part with symplectic family
    code, _, err = run(capsys, "verify", "--mu", "3,3", "--family", "symplectic")
    assert code == 2 and "even parts" in err
    # guard exceeded
    code, _, err = run(capsys, "verify", "--mu", "10", "--family", "orthogonal")
    assert code == 2 and "guard" in err
    # guard can be lifted
    code, _, _ = run(capsys, "wset", "--mu", "5,5", "--family", "orthogonal", "--max-n", "10")
    assert code == 0
    # malformed composition
    code, _, err = run(capsys, "wset", "--mu", "3,x", "--family", "orthogonal")
    assert code == 2
    # malformed permutation
    code, out, err = run(capsys, "schubert", "--n", "3", "--perm", "3x1")
    assert (code, out, err) == (2, "", "error: cannot parse permutation from '3x1'\n")
    # unknown flag / missing subcommand go through argparse (SystemExit 2)
    code, _, _ = run(capsys, "wset", "--mu", "2", "--family", "orthogonal", "--bogus")
    assert code == 2


def test_sweep_symplectic_odd_n(capsys):
    code, _, err = run(capsys, "sweep", "--n", "5", "--family", "symplectic")
    assert code == 2 and "even" in err


@pytest.mark.parametrize("command", ["sweep", "schubert"])
def test_n_below_one_is_a_usage_error(capsys, command):
    extra = ["--family", "orthogonal"] if command == "sweep" else ["--perm", "1"]
    code, out, err = run(capsys, command, "--n", "0", *extra)
    assert code == 2 and out == ""
    assert err == "error: --n must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "10", "--family", "orthogonal"],
        ["schubert", "--n", "10", "--perm", "1,2,3,4,5,6,7,8,10,9"],
    ],
)
def test_n_above_guard_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: ambient size 10 exceeds guard --max-n 9\n"


def test_mu_above_guard_is_rejected_in_128_mb():
    # a Composition of 10^8 positions is two short tuples, so under a 128 MB
    # address-space cap the guard still reports the size as a usage error
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
        "from schubfactor.cli import main\n"
        "sys.exit(main(['verify', '--mu', '100000000', '--family', 'orthogonal']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: ambient size 100000000 exceeds guard --max-n 9\n"


def test_schubert_guard_can_be_lifted(capsys):
    perm = "1,2,3,4,5,6,7,8,10,9"
    code, out, _ = run(capsys, "schubert", "--n", "10", "--perm", perm, "--max-n", "10")
    assert code == 0
    assert out.strip() == "x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9"


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    run(capsys, "schubert", "--n", "3", "--perm", "321")
    run(capsys, "wset", "--mu", "2", "--family", "orthogonal")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(verifier, "verify_identity", broken)
    code, out, err = run(capsys, "verify", "--mu", "3,4", "--family", "orthogonal")
    assert code == 3 and out == ""
    assert err.startswith("Traceback") and "in broken" in err
    assert err.endswith("\ninternal error: ValueError: broken invariant\n")
