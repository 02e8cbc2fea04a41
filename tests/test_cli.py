import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from tbraid.braid import format_word, transversal_commutator
from tbraid.cli import run


def invoke(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in
    return code, out.getvalue(), err.getvalue()


def test_nf_json_is_byte_exact():
    code, out, _ = invoke(["--n", "4", "--json", "nf", "1 1"])
    assert code == 0
    assert out == '{"perm":[1,2,3,4],"bit":0,"vec":[1,0,0,0]}\n'


def test_eq_tbn_on_transversal_commutator():
    word = format_word(transversal_commutator(5))
    code, out, _ = invoke(["--n", "5", "--json", "eq", "--group", "tbn", word, ""])
    assert code == 0
    assert out == '"equal"\n'
    code, out, _ = invoke(["--n", "5", "eq", "--group", "bn", word, ""])
    assert code == 1
    assert out == "not-equal\n"


def test_eq_human_mode():
    code, out, _ = invoke(["--n", "4", "eq", "1 2 1", "2 1 2"])
    assert code == 0 and out == "equal\n"


def test_kernel():
    from tbraid.braid import quadrangle_relator

    word = format_word(quadrangle_relator(4))
    code, out, _ = invoke(["--n", "4", "kernel", word])
    assert code == 0 and out == "yes\n"
    code, out, _ = invoke(["--n", "4", "kernel", "1 1"])
    assert code == 1 and out == "no\n"


def test_act_and_lift_roundtrip():
    code, out, _ = invoke(["--n", "4", "act", "0;1,0,0,0", "2"])
    assert code == 0 and out.strip() == "1;1,0,1,0"
    code, out, _ = invoke(["--n", "4", "lift", "1;0,0,0,0"])
    assert code == 0 and out.strip() == "1 1 2 2 -1 -1 -2 -2"
    code, out, _ = invoke(["--n", "4", "nf", out.strip()])
    assert code == 0 and "bit: 1" in out


def test_lk():
    code, out, _ = invoke(["--n", "4", "--json", "lk", "1 1"])
    assert code == 0
    assert json.loads(out) == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    code, _, err = invoke(["--n", "4", "lk", "1"])
    assert code == 2 and "pure" in err


def test_classify():
    code, out, _ = invoke(["--n", "4", "--json", "classify", "1||+", "2||+"])
    assert code == 0
    assert json.loads(out) == {
        "commute": False, "triple": True, "common_endpoints": 1,
        "label": "consecutive",
    }
    code, _, err = invoke(["--n", "4", "classify", "1|+", "2||+"])
    assert code == 2 and "half-twist" in err


def test_prime_check():
    code, out, _ = invoke(["--n", "5", "--json",
                           "prime-check", "1;0,-1,0,0,0", "1;0,0,0,0,0"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, out, _ = invoke(["--n", "5", "--json",
                           "prime-check", "0;1,0,0,0,0", "1;0,0,0,0,0"])
    assert code == 1
    assert json.loads(out)["verdict"] == "fail(1)"


def test_prop71_check():
    code, out, _ = invoke(["--n", "5", "--json", "--bound", "3",
                           "prop71-check", "1;0,-1,0,0,0"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass-up-to-bound(3)"
    code, out, _ = invoke(["--n", "5", "--json", "prop71-check", "1;0,0,0,0,0"])
    assert code == 1
    assert json.loads(out)["verdict"] == "fail(0)"


def test_stdin_word():
    code, out, _ = invoke(["--n", "4", "--json", "nf", "-"], stdin="1 1\n")
    assert code == 0
    assert json.loads(out) == {"perm": [1, 2, 3, 4], "bit": 0, "vec": [1, 0, 0, 0]}


def test_verify_single_suite():
    code, out, _ = invoke(["--n", "5", "--json", "verify", "tits", "--cases", "20"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert set(payload["suites"]) == {"tits"}
    assert all(payload["suites"]["tits"].values())


def test_dump_tables():
    code, out, _ = invoke(["--n", "4", "--json", "--dump-tables"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s_ij"]["s_12"] == "0;1,0,0,0"
    assert payload["s_ij"]["s_23"] == "1;1,1,1,0"
    assert payload["actions"]["X_2"]["g0"] == "1;1,0,1,0"
    code, _, err = invoke(["--n", "4"])
    assert code == 2


def test_format_errors_exit_2():
    code, _, err = invoke(["--n", "4", "nf", "1 x"])
    assert code == 2 and "'x'" in err
    code, _, err = invoke(["--n", "4", "nf", "9"])
    assert code == 2 and "'9'" in err
    code, _, err = invoke(["--n", "3", "nf", "1"])
    assert code == 2 and "n >= 4" in err
    code, _, err = invoke(["--n", "5", "act", "5;1", "1"])
    assert code == 2
    code, _, err = invoke(["nf", "1 1"])
    assert code == 2 and "--n" in err


def test_json_mode_emits_one_document():
    for argv in (["--n", "4", "--json", "nf", "1 -2"],
                 ["--n", "4", "--json", "eq", "1", "2"],
                 ["--n", "4", "--json", "kernel", ""],
                 ["--n", "4", "--json", "--dump-tables"]):
        _, out, _ = invoke(argv)
        json.loads(out)  # exactly one parseable document
        assert out.count("\n") == 1


def test_global_and_subcommand_options_agree():
    base = ["--n", "5", "--json"]
    prime = "1;0,-1,0,0,0"
    spellings = [
        (["--seed", "3", "verify", "tits"], ["verify", "tits", "--seed", "3"], "seed", 3),
        (["--cases", "7", "verify", "tits"], ["verify", "tits", "--cases", "7"], "cases", 7),
        (["--bound", "2", "prop71-check", prime], ["prop71-check", prime, "--bound", "2"],
         "bound", 2),
    ]
    for global_spelling, sub_spelling, key, value in spellings:
        result = invoke(base + global_spelling)
        assert json.loads(result[1])[key] == value
        assert invoke(base + sub_spelling) == result


def test_subcommand_option_wins_over_global():
    base = ["--n", "5", "--json"]
    _, out, _ = invoke(base + ["--cases", "7", "--seed", "1", "verify", "tits",
                               "--cases", "5", "--seed", "2"])
    payload = json.loads(out)
    assert (payload["cases"], payload["seed"]) == (5, 2)
    _, out, _ = invoke(base + ["--bound", "3", "prop71-check", "1;0,-1,0,0,0", "--bound", "2"])
    assert json.loads(out)["bound"] == 2


def test_negative_cases_is_a_usage_error():
    # A negative or zero --cases used to run no sampled case and report
    # "all: pass".
    for argv in (["--n", "5", "verify", "all", "--cases", "-3"],
                 ["--n", "5", "--cases", "-3", "verify", "tits"],
                 ["--n", "5", "--json", "verify", "tits", "--cases", "-1"],
                 ["--n", "5", "--cases", "0", "verify", "all"],
                 ["--n", "5", "--json", "verify", "tits", "--cases", "0"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert "argument --cases: must be >= 1" in err
    code, out, err = invoke(["--n", "5", "verify", "tits", "--cases", "x"])
    assert (code, out) == (2, "") and "argument --cases: invalid count value: 'x'" in err
    code, out, _ = invoke(["--n", "5", "verify", "tits", "--cases", "1"])
    assert code == 0 and out.endswith("all: pass\n")


def test_negative_bound_is_a_usage_error():
    # A negative --bound used to run prop71-check as if it were 0.
    prime = "1;0,-1,0,0,0"
    for argv in (["--n", "5", "prop71-check", prime, "--bound", "-2"],
                 ["--n", "5", "--bound", "-2", "prop71-check", prime],
                 ["--n", "5", "--json", "--bound", "-1", "prop71-check", prime, "--bound", "2"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert "argument --bound: must be >= 0" in err
    code, out, _ = invoke(["--n", "5", "--json", "prop71-check", prime, "--bound", "0"])
    assert code == 1 and json.loads(out)["bound"] == 0


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_subcommands_load_only_the_layers_they_use():
    # Without a bytecode cache every tb process compiles what it imports.  A
    # fresh process, so that no earlier test has loaded the prime-element or
    # verification layers.
    code = """if True:
        import contextlib, io, sys
        from tbraid import cli
        light = [["--n", "4", "nf", "1 1"], ["--n", "4", "--json", "eq", "1 2 1", "2 1 2"],
                 ["--n", "4", "eq", "--group", "bn", "1", "2"], ["--n", "4", "kernel", "1 1"],
                 ["--n", "4", "act", "0;1,0,0,0", "2"], ["--n", "4", "--json", "lift", "1;0,0,0,0"],
                 ["--n", "4", "lk", "1 1"], ["--n", "4", "classify", "1||+", "2||-"],
                 ["--n", "4", "--dump-tables"], ["--n", "4", "--json", "--dump-tables"]]
        heavy = [["--n", "5", "prime-check", "1;0,-1,0,0,0", "1;0,0,0,0,0"],
                 ["--n", "5", "--json", "prop71-check", "1;0,-1,0,0,0"],
                 ["--n", "5", "verify", "tits", "--cases", "5"]]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(argv) for argv in light]
        print(codes, sorted(m for m in ("tbraid.primes", "tbraid.verify") if m in sys.modules))
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(argv) for argv in heavy]
        from tbraid import verify
        print(codes, cli.SUITE_NAMES == tuple(verify.SUITES))
    """
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0, 0, 1, 1, 0, 0, 0, 0, 0, 0] []",
                                          "[0, 0, 0] True"]


def test_first_use_at_large_n_is_fast():
    # Building the scan table used to take O(n^3) time on first use: 7-8 s
    # for one letter at n = 160 on a 2-CPU VM, where it now takes about 0.3 s.
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "tbraid.cli", "--n", "160", "nf", "1"],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                            timeout=60)
    wall = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("perm: 2 1 3 ") and "bit: 0\n" in result.stdout
    assert wall < 2.0, wall
