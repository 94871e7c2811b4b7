import json
import os
import random
import subprocess
import sys

import pytest

import bettibounds
from bettibounds import monomials, verifier
from bettibounds.cli import main
from bettibounds.groebner import Ideal
from bettibounds.ideal_io import ParseError, format_ideal, parse_ideal
from bettibounds.polyring import Poly, PolyRing
from bettibounds.verifier import CHECKS


def test_parse_basic():
    I, meta = parse_ideal("ring 2 32003 x y\nx^2 + y^2\nx*y\n")
    assert I.ring.nvars == 2 and I.ring.char == 32003
    assert len(I.gens) == 2
    assert I.gens[0].terms == {(2, 0): 1, (0, 2): 1}
    assert I.gens[1].terms == {(1, 1): 1}
    assert meta == {}


def test_parse_default_names_and_meta():
    I, meta = parse_ideal("ring 3 101\n! height 2\n! unmixed_radical true\nx1*x2\nx2*x3\n")
    assert I.ring.names == ("x1", "x2", "x3")
    assert meta == {"height": 2, "unmixed_radical": True}


def test_parse_mod_p_normalization():
    I, _ = parse_ideal("ring 2 5 x y\n-1*x^2\n")
    assert I.gens[0].terms == {(2, 0): 1}  # generators are stored monic
    # the raw parser output keeps -1 = 4 mod 5
    from bettibounds.ideal_io import _parse_poly

    ring = PolyRing(2, 5, ("x", "y"))
    f = _parse_poly("-1*x^2", ring, {"x": 0, "y": 1}, 1)
    assert f.terms == {(2, 0): 4}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ideal("ring 2 32003 x y\nx^2 + y\n")  # inhomogeneous
    with pytest.raises(ParseError):
        parse_ideal("ring 2 32003 x y\nx^2 + w^2\n")  # unknown variable
    with pytest.raises(ParseError):
        parse_ideal("ring 2 6 x y\nx*y\n")  # p not prime
    with pytest.raises(ParseError):
        parse_ideal("ring 0 32003\n")  # no variables
    with pytest.raises(ParseError):
        parse_ideal("")
    with pytest.raises(ParseError):
        parse_ideal("ring 2 32003 x y\nx^\n")
    with pytest.raises(ParseError):
        parse_ideal("ring 2 32003 x y\nx + + y\n")
    try:
        parse_ideal("ring 2 32003 x y\nx*y\nx^2 + y\n")
    except ParseError as exc:
        assert exc.line == 3


def test_roundtrip_simple():
    text = "ring 2 32003 x y\nx^2 + y^2\nx*y\n"
    I, meta = parse_ideal(text)
    assert parse_ideal(format_ideal(I, meta))[0] == I


def test_roundtrip_fuzz_thousand():
    rng = random.Random(0xF00D)
    count = 0
    while count < 1000:
        n = rng.randint(1, 4)
        ring = PolyRing(n, rng.choice([5, 101, 32003]))
        gens = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 4)
            terms = {}
            for _ in range(rng.randint(1, 5)):
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                terms[tuple(e)] = rng.randrange(1, ring.char)
            gens.append(Poly(ring, terms))
        I = Ideal(ring, gens)
        J, _ = parse_ideal(format_ideal(I))
        assert J == I
        count += 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

IDEAL_TEXT = "ring 2 32003 x y\nx^2\ny^2\n"


def _write(tmp_path, text=IDEAL_TEXT, name="ideal.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_cli_gb(tmp_path, capsys):
    path = _write(tmp_path, "ring 2 32003 x y\nx^2 + y^2\nx*y\n")
    assert main(["gb", path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3  # three monic elements


def test_cli_runs_as_python_module(tmp_path, capsys):
    path = _write(tmp_path, "ring 2 32003 x y\nx^2 + y^2\nx*y\n")
    assert main(["gb", path]) == 0
    src = os.path.dirname(os.path.dirname(bettibounds.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bettibounds", "gb", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_cli_betti(tmp_path, capsys):
    path = _write(tmp_path)
    assert main(["betti", path]) == 0
    out = capsys.readouterr().out
    assert "j-i" in out


def test_cli_invariants(tmp_path, capsys):
    path = _write(tmp_path)
    assert main(["invariants", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pd"] == 2 and data["reg"] == 2 and data["alpha"] == 2
    assert data["socle_degrees"] == [2]


def test_cli_check_single_and_all(tmp_path, capsys):
    path = _write(tmp_path)
    assert main(["check", path, "--name", "thm_lc"]) == 0
    line = capsys.readouterr().out.strip()
    assert json.loads(line)["verdict"] == "pass"
    assert main(["check", path, "--all"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(l)["verdict"] in ("pass", "hypotheses_not_met") for l in lines)


def test_cli_checks_share_one_instance_memo(tmp_path, capsys, monkeypatch):
    # both check paths run inside one memo scope, and none is left behind
    seen = []
    real = verifier.CHECKS["thm_lc"]
    monkeypatch.setitem(verifier.CHECKS, "thm_lc",
                        lambda *a: seen.append(monomials._memo.get() is not None) or real(*a))
    path = _write(tmp_path)
    assert main(["check", path, "--name", "thm_lc"]) == 0
    assert main(["check", path, "--all"]) == 0
    capsys.readouterr()
    assert seen == [True, True]
    assert monomials._memo.get() is None


def test_cli_check_deterministic_output(tmp_path):
    path = _write(tmp_path)
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    assert main(["--out", str(out1), "check", path, "--all"]) == 0
    assert main(["--out", str(out2), "check", path, "--all"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_corpus(tmp_path, capsys):
    prefix = tmp_path / "corp"
    assert main(["--out", str(prefix), "--seed", "4", "corpus", "--size", "4"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["fail"] == 0
    assert (tmp_path / "corp.jsonl").exists() and (tmp_path / "corp.tsv").exists()
    tsv = (tmp_path / "corp.tsv").read_text().splitlines()
    assert tsv[0] == "instance\tcheck\tlhs\trhs_log2\tverdict"


def test_cli_corpus_with_an_instance_error_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verifier, "run_all_checks", boom)
    assert main(["--out", str(tmp_path / "corp"), "--seed", "4", "corpus", "--size", "2"]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["error"] == 2 and summary["pass"] == 0


def test_cli_parse_error_exit_code(tmp_path):
    path = _write(tmp_path, "ring 2 32003 x y\nx + y^2\n")
    assert main(["betti", path]) == 2


def test_characteristic_of_2_31_or_more_is_refused_before_primality(tmp_path, monkeypatch, capsys):
    from bettibounds import polyring

    def no_trial_division(n):
        raise AssertionError("primality tested on an out-of-range characteristic")

    monkeypatch.setattr(polyring, "is_prime", no_trial_division)
    text = "ring 2 1000000000000000003 x y\nx*y\n"
    with pytest.raises(ParseError, match=r"2\^31"):
        parse_ideal(text)
    assert main(["betti", _write(tmp_path, text)]) == 2
    assert main(["--out", str(tmp_path / "corp"), "--prime", "4294967311", "corpus", "--size", "1"]) == 2
    assert "2^31" in capsys.readouterr().err


def test_cli_r_sweep_validation(tmp_path):
    path = _write(tmp_path)
    with pytest.raises(SystemExit):
        main(["--r-sweep", "0,-1", "check", path, "--all"])


def test_cli_gb_order_and_faithful_belong_to_gb(tmp_path, capsys):
    path = _write(tmp_path, "ring 2 32003 x y\nx^2 + y^2\nx*y\n")
    assert main(["gb", path, "--order", "lex", "--faithful"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    for argv in (["check", path, "--all", "--faithful"], ["--faithful", "gb", path],
                 ["check", path, "--all", "--order", "lex"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cli_gb_exponent_out_of_range_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "ring 1 32003 x\nx^8192\n")
    assert main(["gb", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^13" in err


def test_cli_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verifier, "check_thm_lc", boom)
    path = _write(tmp_path)
    assert main(["check", path, "--name", "thm_lc"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: RuntimeError: boom\n") and "Traceback" in err
    assert main(["check", path, "--all"]) == 3


# ---------------------------------------------------------------------------
# the check registry: --name X prints exactly what entry X adds to --all
# ---------------------------------------------------------------------------

PARITY_IDEALS = {
    # a path edge ideal, asserted unmixed radical so that thm_prime runs
    "edge": "ring 4 32003 a b c d\n! unmixed_radical true\na*b\nb*c\nc*d\n",
    # small enough for the lex remark_deg report
    "dense3": "ring 3 32003 x y z\nx^2 + y*z\ny^2 + 3*x*z\n",
}


@pytest.fixture(scope="module")
def registry_runs(tmp_path_factory):
    """For each parity ideal: the --all lines and the --name lines of every
    registry entry, in registry order."""
    tmp = tmp_path_factory.mktemp("registry")
    runs = {}
    for label, text in PARITY_IDEALS.items():
        path = tmp / f"{label}.ideal"
        path.write_text(text, encoding="utf-8")

        def lines(*args):
            out = tmp / "out.jsonl"
            main(["--seed", "5", "--out", str(out), "check", str(path), *args])
            return out.read_text(encoding="utf-8").splitlines()

        runs[label] = (lines("--all"), {name: lines("--name", name) for name in CHECKS})
    return runs


@pytest.mark.parametrize("label", sorted(PARITY_IDEALS))
@pytest.mark.parametrize("name", list(CHECKS))
def test_cli_check_name_is_its_share_of_all(registry_runs, label, name):
    all_lines, by_name = registry_runs[label]
    names = list(CHECKS)
    start = sum(len(by_name[n]) for n in names[:names.index(name)])
    assert by_name[name] == all_lines[start:start + len(by_name[name])]
    assert sum(len(v) for v in by_name.values()) == len(all_lines)


def test_cli_registry_covers_hypotheses_and_lex(registry_runs):
    edge_all, edge = registry_runs["edge"]
    dense_all, dense = registry_runs["dense3"]
    assert [json.loads(l)["check"] for l in edge["thm_prime"]] == ["thm_prime"]
    assert dense["thm_prime"] == []
    assert [json.loads(l)["params"]["order"] for l in dense["remark_deg"]] == ["grevlex", "grevlex", "lex"]
    assert [json.loads(l)["check"] for l in edge["mccullough"]] == ["mccullough"]
    assert json.loads(edge_all[-1])["check"] == json.loads(dense_all[-1])["check"] == "mccullough"


def test_cli_check_name_mccullough(tmp_path, capsys):
    path = _write(tmp_path)
    assert main(["check", path, "--name", "mccullough"]) == 0
    assert json.loads(capsys.readouterr().out)["check"] == "mccullough"


def test_cli_thm_prime_without_hypothesis_exits_2(tmp_path, capsys):
    path = _write(tmp_path)
    assert main(["check", path, "--name", "thm_prime"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: thm_prime does not apply")
