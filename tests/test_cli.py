"""Command-line interface: exit codes, output formats, reproduce targets."""

import hashlib
import importlib.metadata
import json
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import embedrank
from embedrank import expected
from embedrank.cli import run
from embedrank.designs import (
    IncidenceStructure,
    emit_des,
    emit_json,
    load_design,
    parse_des,
    parse_json,
    verify_tdesign,
)
from embedrank.errors import EmbedrankError
from embedrank.geometry import ag_design


@pytest.fixture
def fano_file(tmp_path, fano):
    path = tmp_path / "fano.des"
    path.write_text(emit_des(fano))
    return str(path)


@pytest.fixture
def k4_file(tmp_path, k4_edges):
    path = tmp_path / "k4.des"
    path.write_text(emit_des(k4_edges))
    return str(path)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "embedrank" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["gen"]) == 2
    assert run(["rank"]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_file_exits_one(tmp_path, capsys):
    assert run(["rank", str(tmp_path / "nope.des")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert "nope.des" in err["message"]


def test_computation_error_json(k4_file, capsys):
    assert run(["thm5", k4_file, "0"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "WrongParameters"


MALFORMED_DESIGNS = [
    ("header.des", b"x 2\n0 1\n1 2\n", "WrongParameters"),
    ("letter.des", b"3 1\n0 z\n", "WrongParameters"),
    ("fraction.des", b"3 1\n0 1.5\n", "WrongParameters"),
    ("underscore.des", b"11 1\n1_0\n", "WrongParameters"),
    ("fullwidth.des", "3 1\n0 \uff11\n".encode(), "WrongParameters"),
    ("latin1.des", b"3 1\n0 1 \xe9\n", "WrongParameters"),
    ("negative_v.des", b"-1 0\n", "WrongParameters"),
    ("negative_b.des", b"3 -1\n", "WrongParameters"),
    ("out_of_range.des", b"3 1\n0 3\n", "BadIndex"),
    ("no_v.json", b'{"blocks": [[0, 1]]}', "WrongParameters"),
    ("truncated.json", b'{"v": 3, "blocks": [[0, 1', "WrongParameters"),
    ("blocks_int.json", b'{"v": 3, "blocks": 5}', "WrongParameters"),
    ("not_object.json", b"[3, [[0, 1]]]", "WrongParameters"),
    ("deep.json", b"[" * 100000 + b"]" * 100000, "WrongParameters"),
    ("fraction.json", b'{"v": 3, "blocks": [[0, 1.5]]}', "WrongParameters"),
    ("negative_v.json", b'{"v": -1, "blocks": []}', "WrongParameters"),
    ("out_of_range.json", b'{"v": 3, "blocks": [[0, 3]]}', "BadIndex"),
]


@pytest.mark.parametrize("name, payload, error", MALFORMED_DESIGNS, ids=[c[0] for c in MALFORMED_DESIGNS])
def test_malformed_design_exits_one(tmp_path, capsys, name, payload, error):
    path = tmp_path / name
    path.write_bytes(payload)
    assert run(["rank", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error
    assert err["message"]


# what a mutation may put in place of one integer of a design file
_BAD_TOKENS = ("-1", "999", "1.5", "x", "0x10", "\u0663", "\uff11")
_BAD_JSON_TOKENS = ("true", "null", "[]")


def _ag32_forms():
    """AG_2(3,2) as .des text and as JSON text, each with its parser.

    The JSON is indented so that line mutations have lines to act on.
    """
    ag, _ = ag_design(3, 2, 2)
    as_json = json.dumps(json.loads(emit_json(ag)), indent=1)
    return {".des": (emit_des(ag), parse_des), ".json": (as_json, parse_json)}


def _mutate(text: str, rng: random.Random, suffix: str) -> str:
    """One to three random mutations of a design file's text."""
    tokens = _BAD_TOKENS + (_BAD_JSON_TOKENS if suffix == ".json" else ())
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("truncate", "token", "drop", "shuffle", "insert"))
        if kind == "truncate":
            text = text[: rng.randrange(len(text) + 1)]
        elif kind == "token":
            spans = [m.span() for m in re.finditer(r"[0-9]+", text)]
            if spans:
                a, b = rng.choice(spans)
                text = text[:a] + rng.choice(tokens) + text[b:]
        elif kind == "insert":
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice("\r\t\0") + text[i:]
        else:
            lines = text.split("\n")
            if kind == "drop":
                del lines[rng.randrange(len(lines))]
            else:
                rng.shuffle(lines)
            text = "\n".join(lines)
    return text


@pytest.mark.parametrize("suffix", [".des", ".json"])
def test_mutated_designs_parse_or_raise_typed_errors(suffix):
    text, parse = _ag32_forms()[suffix]
    outcomes = Counter()
    for seed in range(1000):
        payload = _mutate(text, random.Random(seed), suffix)
        try:
            design = parse(payload)
        except EmbedrankError as exc:
            outcomes[type(exc).__name__] += 1
        else:
            assert isinstance(design, IncidenceStructure)
            outcomes["parsed"] += 1
    # the mutations keep some payloads valid and fail more than one check
    assert outcomes["parsed"] and outcomes["WrongParameters"] and outcomes["BadIndex"]


def test_mutated_designs_exit_one(tmp_path, capsys):
    # the first rejected mutations of each form, through `embedrank rank`
    for suffix, count in ((".des", 3), (".json", 2)):
        text, _ = _ag32_forms()[suffix]
        seed = -1
        while count:
            seed += 1
            path = tmp_path / f"mutated{seed}{suffix}"
            path.write_bytes(_mutate(text, random.Random(seed), suffix).encode())
            try:
                load_design(str(path))
            except EmbedrankError as exc:
                error = type(exc).__name__
            else:
                continue
            assert run(["rank", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == error and err["message"]
            count -= 1


def test_gen_rank_pipeline(tmp_path, capsys):
    ag = tmp_path / "ag.des"
    pg = tmp_path / "pg.des"
    assert run(["gen", "ag", "3", "4", "2", "-o", str(ag)]) == 0
    assert run(["gen", "pg", "3", "4", "2", "-o", str(pg)]) == 0
    assert run(["rank", str(ag)]) == 0
    assert run(["rank", str(pg)]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["16", "17"]


def test_gen_to_stdout(capsys):
    assert run(["gen", "ag", "2", "2", "1"]) == 0
    design = parse_des(capsys.readouterr().out)
    assert design.v == 4 and design.b == 6


def test_gen_code_designs(tmp_path):
    sdp = tmp_path / "sdp.des"
    rm = tmp_path / "rm.des"
    assert run(["gen", "sdp", "2", "-o", str(sdp)]) == 0
    assert run(["gen", "rm", "1", "3", "-o", str(rm)]) == 0
    ps = verify_tdesign(parse_des(sdp.read_text()), 2)
    assert (ps.v, ps.k, ps.lam) == (16, 6, 2)
    pr = verify_tdesign(parse_des(rm.read_text()), 3)
    assert (pr.v, pr.k, pr.lam) == (8, 4, 1)


def test_rank_other_modulus(fano_file, capsys):
    assert run(["rank", fano_file, "-p", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_zero_modulus_is_one_error_line(fano_file, capsys):
    """p = 0 is refused before any arithmetic mod p: no numpy warning precedes the JSON error."""
    for argv in (["rank", fano_file], ["embeddable", fano_file, "0"], ["wdist", fano_file, "--cols"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([*argv, "-p", "0"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonPrimeModulus"


def test_wdist_csv(fano_file, capsys):
    assert run(["wdist", fano_file, "--rows"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["weight,count", "0,1", "3,7", "4,7", "7,1"]
    assert run(["wdist", fano_file, "--cols"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == lines
    assert run(["wdist", fano_file]) == 2  # --rows/--cols is required
    capsys.readouterr()


def test_wdist_cap_overrides_the_default(tmp_path, capsys):
    path = tmp_path / "ag32.des"
    path.write_text(emit_des(ag_design(3, 2, 2)[0]))  # row code: 2^4 words
    assert run(["wdist", str(path), "--rows", "--cap", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "CapExceeded"
    assert run(["wdist", str(path), "--rows", "--cap", "16"]) == 0
    assert capsys.readouterr().out.splitlines() == ["weight,count", "0,1", "7,8", "8,7"]


def test_residual_derived_cli(fano_file, k4_file, tmp_path, capsys):
    out = tmp_path / "res.des"
    assert run(["residual", fano_file, "0", "-o", str(out)]) == 0
    res = parse_des(out.read_text())
    assert res.v == 4 and res.b == 6
    assert run(["derived", fano_file, "0"]) == 0
    der = parse_des(capsys.readouterr().out)
    assert der.v == 3 and der.b == 6
    assert run(["derived", k4_file, "0"]) == 0
    assert parse_des(capsys.readouterr().out).b == 4
    assert run(["derived", k4_file, "0", "--keep-empty"]) == 0
    assert parse_des(capsys.readouterr().out).b == 5


def test_resolutions_cli(k4_file, capsys):
    assert run(["resolutions", k4_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1 resolutions, 3 parallel classes"
    assert len(lines) == 2
    assert run(["resolutions", k4_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 1 and report["parallel_classes"] == 3
    assert len(report["resolutions"][0]) == 3


@pytest.mark.parametrize("payload", [b"3 1\n\n", b"0 1\n\n"], ids=["v3", "v0"])
def test_resolutions_empty_blocks_exits_one(tmp_path, capsys, payload):
    path = tmp_path / "empty.des"
    path.write_bytes(payload)
    assert run(["resolutions", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "WrongParameters"
    assert err["message"]


def test_goodblocks_cli(tmp_path, capsys):
    path = tmp_path / "plane3.des"
    assert run(["gen", "ag", "2", "3", "1", "-o", str(path)]) == 0
    assert run(["goodblocks", str(path)]) == 0
    assert capsys.readouterr().out.split() == [str(j) for j in range(12)]


def test_embeddable_cli(fano_file, capsys):
    assert run(["embeddable", fano_file, "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"rank_full": 4, "rank_residual": 3, "embeddable": True}


def test_thm5_cli(tmp_path, capsys):
    path = tmp_path / "ag.des"
    assert run(["gen", "ag", "3", "4", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run(["thm5", str(path), "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"required": 120, "found": 130, "passes": True}


def test_iso_cli(fano_file, k4_file, tmp_path, fano, capsys):
    rng = random.Random(301)
    perm = list(range(7))
    rng.shuffle(perm)
    other = IncidenceStructure(7, [tuple(perm[x] for x in blk) for blk in fano.blocks])
    other_file = tmp_path / "other.des"
    other_file.write_text(emit_des(other))
    assert run(["iso", fano_file, str(other_file)]) == 0
    assert run(["iso", fano_file, k4_file]) == 0
    assert capsys.readouterr().out.split() == ["isomorphic", "nonisomorphic"]


def test_aut_cli(fano_file, k4_file, capsys):
    assert run(["aut", fano_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "order 168"
    assert lines[1].startswith("generators ")
    assert run(["aut", fano_file, "--orbits", "points"]) == 0
    assert capsys.readouterr().out.strip() == "0,1,2,3,4,5,6"
    assert run(["aut", k4_file, "--orbits", "resolutions"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def _child_env() -> dict:
    """Environment for a fresh interpreter that imports the package under test."""
    package_root = str(Path(embedrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_group_order_runs_without_sympy(tmp_path):
    path = tmp_path / "ag32.des"
    script = (
        "import sys\n"
        "from embedrank.cli import run\n"
        "from embedrank.geometry import ag_design\n"
        "from embedrank.iso import automorphism_group\n"
        f"assert run(['gen', 'ag', '3', '2', '2', '-o', {str(path)!r}]) == 0\n"
        f"assert run(['aut', {str(path)!r}]) == 0\n"
        "print(automorphism_group(ag_design(3, 2, 2)[0]).order())\n"
        "print('sympy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "order 1344"
    assert lines[-2:] == ["1344", "False"]


FAST_DEMOS = [
    ("good_block_structure.py", "necessary condition passes"),
    ("symmetric_completions.py", "completions 1 (= PG_2(3,4))"),
    ("ranks_and_distributions.py", "row code [80,15], weight distribution:"),
    ("search_completions.py", "3876 candidates, 16 viable codes, 16 designs"),
]


@pytest.mark.parametrize("script, line", FAST_DEMOS, ids=[d[0] for d in FAST_DEMOS])
def test_fast_demo_runs(tmp_path, script, line):
    demo = Path(__file__).resolve().parents[1] / "demos" / script
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def test_sym_embed_cli(tmp_path, capsys):
    path = tmp_path / "planes.des"
    out_dir = tmp_path / "found"
    assert run(["gen", "ag", "3", "2", "2", "-o", str(path)]) == 0
    assert run(["sym-embed", str(path), "--out", str(out_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["target_params"] == [15, 7, 3]
    assert report["n_designs"] == 1
    exports = list(out_dir.glob("design-*.des"))
    assert len(exports) == 1
    assert exports[0].name == f"design-{report['digests'][0][:16]}.des"
    params = verify_tdesign(parse_des(exports[0].read_text()), 2)
    assert (params.v, params.k, params.lam) == (15, 7, 3)


# SHA-256 of each reproduce target's stdout
REPRODUCE_STDOUT = {
    "table1": "2cb931fa79913c1db1eabcab33fc65ba4435479a9c4b56ff25921024b9c2c837",
    "table2": "9f515eba720a04c28fde9bd75c51c5184000cf1ee9531605255a7d3e999750ff",
    "section5": "758d13c35339c976d61b9f8ec2c1be841eeb52421deb914e92032ab5a0e4f176",
    "section6": "97ee6cae7fc10408140f72378f112e08dec6f14213a5bf2d5434226e83d3dded",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of each completion search's stdout on AG_2(3,4) (`gen ag 3 4 2`)
SEARCH_STDOUT = {
    "embed-search": "820851ffd0e4baf6e86694960e5e63e64edd83056d8e4ee27a4661a8bb736ca3",
    "sym-embed": "17014d7cea92eedc103a0348e58716aa37874d289059e2e0cc12f972c69c88e5",
}


def test_reproduce_table1(capsys):
    assert run(["reproduce", "table1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("weight,count")
    assert "64,5" in out.splitlines()
    assert _sha256(out) == REPRODUCE_STDOUT["table1"]


def test_reproduce_section6(capsys):
    assert run(["reproduce", "section6"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("ok")
    assert "isomorphic to PG_2(3,4)" in out
    assert _sha256(out) == REPRODUCE_STDOUT["section6"]


def _declared_console_script() -> str:
    """The target of `embedrank` in pyproject.toml's [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["embedrank"]


def test_console_script_installed(tmp_path):
    """The declared `embedrank` console script runs as a program.

    Every run loads the entry point in a fresh interpreter the way the
    installer's wrapper script does, so an uninstalled checkout
    (`PYTHONPATH=src pytest`) checks it too.  Where the `embedrank`
    distribution is installed, the executable on PATH is run as well.
    """
    target = _declared_console_script()
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'embedrank'\n"
        f"main = EntryPoint(name='embedrank', value={target!r},"
        " group='console_scripts').load()\n"
        "sys.exit(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "embedrank" in proc.stdout

    try:
        dist = importlib.metadata.distribution("embedrank")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = {
        ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"
    }
    assert installed.get("embedrank") == target
    exe = shutil.which("embedrank")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "embedrank" in proc.stdout


def test_reproduce_table2(capsys):
    assert run(["reproduce", "table2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("weight,count")
    assert "30,1024" in out.splitlines()
    assert _sha256(out) == REPRODUCE_STDOUT["table2"]


def test_embed_search_exports_classes(tmp_path, capsys):
    path = tmp_path / "ag.des"
    assert run(["gen", "ag", "3", "4", "2", "-o", str(path)]) == 0
    out_dir = tmp_path / "classes"
    assert run(["embed-search", str(path), "0", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == SEARCH_STDOUT["embed-search"]
    report = json.loads(out)
    assert report["candidates_examined"] == 3876
    assert report["viable_codes"] == 16
    assert sorted(c["multiplicity"] for c in report["iso_classes"]) == [4, 12]
    exports = sorted(out_dir.glob("design-*.des"))
    assert len(exports) == 2
    for path2 in exports:
        params = verify_tdesign(parse_des(path2.read_text()), 2)
        assert (params.v, params.k, params.lam) == (64, 16, 5)


def test_sym_embed_ag34_stdout(tmp_path, capsys):
    path = tmp_path / "ag.des"
    assert run(["gen", "ag", "3", "4", "2", "-o", str(path)]) == 0
    assert run(["sym-embed", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["target_params"] == [85, 21, 5]
    assert _sha256(out) == SEARCH_STDOUT["sym-embed"]


def test_reproduce_section5(capsys):
    assert run(["reproduce", "section5"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("ok")
    assert "stage 3" in out
    assert _sha256(out) == REPRODUCE_STDOUT["section5"]


# one frozen value per target, changed so that the computed value no longer matches
MISMATCHES = [
    ("table1", "TABLE1_UNLISTED_SPLIT", 44, 5761, "44: 5761"),
    ("table2", "TABLE2", 30, 1025, "30: 1025"),
    ("section5", "RANK2_E1", None, 17, "2-rank(e1) = 16, expected 17"),
    ("section6", "SYM_W21", "e1", 70, "e1 weight-21 codewords = 69, expected 70"),
]


@pytest.mark.parametrize("target, name, key, value, named", MISMATCHES, ids=[m[0] for m in MISMATCHES])
def test_reproduce_mismatch_exits_one(monkeypatch, capsys, target, name, key, value, named):
    if key is None:
        monkeypatch.setattr(expected, name, value)
    else:
        monkeypatch.setitem(getattr(expected, name), key, value)
    assert run(["reproduce", target]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "ReproduceMismatch"
    assert named in err["message"]
    if target.startswith("section"):
        assert captured.out.splitlines()[-1] == "mismatch"
