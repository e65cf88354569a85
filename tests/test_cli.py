"""Command-line interface: subcommand dispatch, exit codes, report files,
configuration diagnostics, and determinism of check content."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cubicmotives.cli import main
from cubicmotives.linalg import mat_to_json
from cubicmotives.suites import SUITES, random_gram


def _strip_timing(payload):
    return [
        {k: [{f: x for f, x in c.items() if f != "seconds"} for c in v] if k == "checks" else v
         for k, v in suite.items() if k != "seconds"}
        for suite in payload["suites"]
    ]


def test_every_subcommand_is_wired():
    assert set(SUITES) == {"chern", "mukai-table", "projectors", "derive-p",
                           "kernels", "witt", "gamma", "gamma-k3"}


def test_chern_subcommand_passes(capsys):
    assert main(["chern"]) == 0
    out = capsys.readouterr().out
    assert "suite `chern`" in out
    assert "all passed" in out


def test_out_files_and_shape(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["projectors", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["command"] == "projectors"
    assert payload["seed"] == 0
    assert payload["gram"] == "default"
    (suite,) = payload["suites"]
    assert suite["suite"] == "projectors"
    for check in suite["checks"]:
        assert set(check) == {"id", "claim", "passed", "witness", "seconds"}
        assert check["passed"] is True and check["witness"] is None
    md = (tmp_path / "report.md").read_text()
    assert md.startswith("# verification report")
    capsys.readouterr()


def test_out_markdown_path_swaps_roles(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["chern", "--out", str(out)]) == 0
    assert out.read_text().startswith("# verification report")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["command"] == "chern"
    capsys.readouterr()


def test_check_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "g21.json"
    bad.write_text(json.dumps(mat_to_json(random_gram(1, 21))))
    code = main(["derive-p", "--gram", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "euler-27" in out


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "soon", "tolerance": 0}))
    code = main(["chern", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'seed' must be an integer" in err
    assert "unknown key 'tolerance'" in err


def test_malformed_config_and_gram(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["chern", "--config", str(broken)]) == 2
    assert main(["chern", "--gram", str(tmp_path / "missing.json")]) == 2
    notmat = tmp_path / "notmat.json"
    notmat.write_text(json.dumps({"rows": []}))
    assert main(["chern", "--gram", str(notmat)]) == 2
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps([["1/1", "2/1"], ["0/1", "1/1"]]))
    assert main(["derive-p", "--gram", str(asym)]) == 2
    capsys.readouterr()


def test_zero_denominator_gram_exits_two(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([["1/0", "0/1"], ["0/1", "1/1"]]))
    assert main(["derive-p", "--gram", str(zero)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: gram file")
    assert "is not a valid Gram matrix" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gram": [["1/0"]]}))
    assert main(["derive-p", "--config", str(cfg)]) == 2
    assert "config: inline 'gram' value is not a valid Gram matrix" in capsys.readouterr().err
    # JSON true is not the number 1
    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps([[True, 0], [0, -1]]))
    assert main(["chern", "--gram", str(boolean)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: gram file")
    assert "is not a valid Gram matrix" in err
    cfg.write_text(json.dumps({"gram": [[1, 0], [0, False]]}))
    assert main(["chern", "--config", str(cfg)]) == 2
    assert "config: inline 'gram' value is not a valid Gram matrix" in capsys.readouterr().err


def test_boolean_seed_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": True}))
    assert main(["chern", "--config", str(cfg)]) == 2
    assert "'seed' must be an integer, got bool" in capsys.readouterr().err


def test_suite_crash_exits_three(monkeypatch, capsys):
    def boom(cfg=None, seed=0):
        raise RuntimeError("kaboom")

    monkeypatch.setitem(SUITES, "projectors", boom)
    assert main(["projectors"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.rstrip().splitlines()[-1] == "error: projectors: RuntimeError: kaboom"
    # under 'all' the suites before it run, but no report is printed
    assert main(["all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().splitlines()[-1] == "error: projectors: RuntimeError: kaboom"


def test_config_file_with_inline_gram(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "gram": mat_to_json(random_gram(0, 4))}))
    out = tmp_path / "r.json"
    assert main(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3
    assert payload["gram"] == "inline"
    capsys.readouterr()


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    out = tmp_path / "r.json"
    assert main(["witt", "--config", str(cfg), "--seed", "8", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 8
    capsys.readouterr()


def test_random_gram_spec(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["derive-p", "--gram", "random", "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gram"] == "random(seed=2)"
    capsys.readouterr()


def test_reports_deterministic_given_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gamma", "--seed", "4", "--out", str(a)]) == 0
    assert main(["gamma", "--seed", "4", "--out", str(b)]) == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    assert _strip_timing(pa) == _strip_timing(pb)
    capsys.readouterr()


def test_all_subcommand_covers_every_suite(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert main(["all", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [s["suite"] for s in payload["suites"]] == list(SUITES)
    # one check record shape everywhere: a witness exactly on failure
    for suite in payload["suites"]:
        for check in suite["checks"]:
            assert (check["witness"] is None) == check["passed"], check
            if not check["passed"]:
                assert isinstance(check["witness"], str) and check["witness"], check
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cubicmotives", "chern"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "suite `chern`" in proc.stdout


# --- config fuzz ---------------------------------------------------------------

_entry = st.one_of(
    st.integers(-5, 5),
    st.integers(2**63, 2**70).map(lambda n: n * (-1) ** n),        # beyond int64
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-3, 9)),  # "p/q", "p/0"
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
)


@st.composite
def _valid_gram(draw):
    """A symmetric rank 1-4 matrix with a nonzero diagonal, in "p/q" rows."""
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from((1, 2, 3, -1, -2, 2**64 + 1)))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.sampled_from((0, 0, 1, -1)))
    return [[f"{x}/1" for x in row] for row in rows]


_gram = st.one_of(
    _valid_gram(),
    _valid_gram().map(lambda g: {"prim_gram": g}),
    st.lists(st.lists(_entry, max_size=4), max_size=4),           # ragged, non-square
    st.integers(1, 3).map(lambda n: [["1/1"] * n] * n),            # singular
    st.sampled_from(([["1/0"]], [], [[]], {"rows": []}, 7, "x")),
)
# file contents that no JSON encoder writes: an integer literal beyond the
# conversion limit, invalid JSON, bytes that are not UTF-8
_raw_gram = st.sampled_from((b"[[" + b"9" * 5000 + b"]]", b"{not json", b"", b"\xff\xfe[[1]]"))
_seed = st.one_of(st.integers(-3, 3), st.integers(2**63, 2**70), st.booleans(),
                  st.floats(allow_nan=False), st.text(max_size=3), st.none())
_gram_spec = st.one_of(st.sampled_from(("default", "random", "GRAMFILE")),
                       st.text(max_size=6), _gram)


@st.composite
def _cli_case(draw):
    config = draw(st.dictionaries(
        st.sampled_from(("seed", "gram", "tolerance", "")),
        st.one_of(_seed, _gram_spec), max_size=3))
    gram_file = draw(st.one_of(_gram.map(lambda g: json.dumps(g).encode()), _raw_gram))
    suite = draw(st.sampled_from(("chern", "derive-p")))
    flags = draw(st.sampled_from((["--config"], ["--gram"], ["--config", "--gram"])))
    return config, gram_file, suite, flags


@settings(max_examples=40, deadline=None)
@given(_cli_case())
def test_config_fuzz_exits_cleanly(case):
    """Random config and gram files: every run ends with 0, 1 or 2 and never
    with a traceback (a crash must not look like a check result)."""
    config, gram_file, suite, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        gram_path = Path(tmp) / "gram.json"
        gram_path.write_bytes(gram_file)
        if config.get("gram") == "GRAMFILE":
            config["gram"] = str(gram_path)
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv = [suite]
        if "--config" in flags:
            argv += ["--config", str(cfg_path)]
        if "--gram" in flags:
            argv += ["--gram", str(gram_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{suite} exit {code}")
    assert code in (0, 1, 2), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
