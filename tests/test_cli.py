"""Command-line interface: exit codes, output formats, reproduce targets."""

import hashlib
import importlib.metadata
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import embedrank
import pinned_outputs
from embedrank import expected, iso
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
from embedrank.embedding import embedding_search
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


@pytest.mark.parametrize("argv", [["embeddable", "0"], ["residual", "0"], ["embed-search", "0"], ["embeddable", "-1"]])
def test_block_of_a_design_with_no_blocks(tmp_path, capsys, argv):
    """A block index into a design with no blocks names that, not an empty range "0..-1"."""
    path = tmp_path / "empty.des"
    path.write_text("0 0\n")
    cmd, block = argv
    assert run([cmd, str(path), block]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "BadIndex", "message": f"block index {block}: the design has no blocks"}


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
    ("name_int.json", b'{"v": 3, "blocks": [[0, 1]], "name": 5}', "WrongParameters"),
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
        "print('_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "order 1344"
    assert lines[-3:-1] == ["1344", "False"]
    # With a builtin SHA-256, labeling never imports hashlib's OpenSSL module.
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert lines[-1] == "False"


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


def _invoke(argv: list) -> tuple:
    """`cli.run` in this process: (exit code, stdout, stderr)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


PINNED = pinned_outputs.load()


@pytest.fixture(scope="module")
def pinned_paths(tmp_path_factory):
    data = Path(embedrank.__file__).parent / "data"
    return pinned_outputs.make_inputs(PINNED, _invoke, tmp_path_factory.mktemp("pinned"), data)


@pytest.mark.parametrize("entry", PINNED["entries"], ids=["-".join(e["argv"]) for e in PINNED["entries"]])
def test_pinned_output(pinned_paths, entry):
    assert pinned_outputs.check(entry, _invoke, pinned_paths) is None


def _manifest_file(tmp_path, entries) -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"inputs": {}, "texts": {}, "bundled": [], "entries": entries}))
    return path


def test_pinned_outputs_runner_reports_each_mismatch_once(tmp_path):
    entries = [
        {"argv": ["a"], "exit": 0, "stdout_sha256": hashlib.sha256(b"A\n").hexdigest()},
        {"argv": ["b", "x.des"], "exit": 0, "stdout_sha256": hashlib.sha256(b"B\n").hexdigest()},
        {"argv": ["c"], "exit": 0, "stdout": "C\n"},
        {"argv": ["d"], "exit": 1, "error": "CapExceeded"},
        {"argv": ["e"], "exit": 1, "error": "CapExceeded"},
    ]
    manifest = pinned_outputs.load(_manifest_file(tmp_path, entries))
    results = {
        "a": (0, "A\n", ""),
        "b /in/x.des": (0, "changed\n", ""),  # a changed digest
        "c": (2, "", "usage: ...\n"),  # a wrong exit code
        "d": (1, "", '{"error": "BadIndex", "message": "m"}\n'),  # a wrong error class
        "e": (1, "", '{"error": "CapExceeded", "message": "m"}\n'),
    }
    calls = []

    def invoke(argv):
        calls.append(argv)
        return results[" ".join(argv)]

    lines = []
    failures = pinned_outputs.check_all(manifest, invoke, {"x.des": "/in/x.des"}, lines.append)
    assert len(calls) == len(lines) == 5
    assert lines[0] == "a: ok" and lines[4] == "e: ok"
    assert failures == lines[1:4]
    assert failures[0].startswith("b x.des: stdout sha256 ")
    assert failures[1] == "c: exit 2, expected 0 (usage: ...)"
    assert failures[2] == "d: error BadIndex, expected CapExceeded"


@pytest.mark.parametrize(
    "entries, problem",
    [
        ([{"argv": ["a"], "exit": 0}], "exactly one"),
        ([{"argv": ["a"], "exit": 0, "stdout": "", "error": "CapExceeded"}], "exactly one"),
        ([{"argv": ["a"], "exit": 0, "stdout": ""}, {"argv": ["a"], "exit": 1, "error": "X"}], "twice"),
    ],
    ids=["no-expectation", "two-expectations", "repeated-argv"],
)
def test_pinned_outputs_load_rejects(tmp_path, entries, problem):
    with pytest.raises(ValueError, match=problem):
        pinned_outputs.load(_manifest_file(tmp_path, entries))


def _declared_console_script() -> str:
    """The target of `embedrank` in pyproject.toml's [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["embedrank"]


CLOSED_PIPE_COMMANDS = [
    ["gen", "ag", "3", "4", "2"],
    ["goodblocks", "ag.des"],
    ["reproduce", "table2"],
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_PIPE_COMMANDS, ids=[a[0] for a in CLOSED_PIPE_COMMANDS])
def test_closed_stdout_pipe_exits_quietly(tmp_path, argv, unbuffered):
    """A command whose stdout pipe has no reader exits 0 with nothing on stderr.

    The read end is closed before the child starts, so its first write or
    its flush at the end meets EPIPE, as under `embedrank ... | head -n 1`.
    """
    assert run(["gen", "ag", "3", "4", "2", "-o", str(tmp_path / "ag.des")]) == 0
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "embedrank.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")


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


def test_embed_search_exports_classes(tmp_path, capsys):
    path = tmp_path / "ag.des"
    assert run(["gen", "ag", "3", "4", "2", "-o", str(path)]) == 0
    out_dir = tmp_path / "classes"
    assert run(["embed-search", str(path), "0", "--out", str(out_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["candidates_examined"] == 3876
    assert report["viable_codes"] == 16
    assert sorted(c["multiplicity"] for c in report["iso_classes"]) == [4, 12]
    exports = sorted(out_dir.glob("design-*.des"))
    assert len(exports) == 2
    for path2 in exports:
        params = verify_tdesign(parse_des(path2.read_text()), 2)
        assert (params.v, params.k, params.lam) == (64, 16, 5)
    # one file per class, named and written from its canonical certificate:
    # the last completion of each class gives the same bytes as the first
    digests = [c["digest"] for c in report["iso_classes"]]
    assert [p.name for p in exports] == sorted(f"design-{digest[:16]}.des" for digest in digests)
    result = embedding_search(parse_des(path.read_text()), 0)
    found = [digest for record in result.records for digest in record.cert_digests]
    last = dict(zip(found, result.designs, strict=True))
    assert sorted(last) == sorted(digests)
    for digest, design in last.items():
        cert = iso.canonical_cert(design)
        assert cert.digest == digest
        assert (out_dir / f"design-{digest[:16]}.des").read_bytes() == cert.payload


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


def test_reproduce_section5_labelings(monkeypatch, capsys):
    """`reproduce section5` runs 13 labelings from a cold cache: ag for the names, then 4 per stage.

    Each stage labels its 4 distinct completions.  The classes are named by
    the result's digests, and the facts and good block of the design
    searched next reuse its labeling from the search that found it.
    """
    runs = []

    class Counting(iso._Search):
        def __init__(self, adj, cells):
            runs.append(1)
            super().__init__(adj, cells)

    iso._analyze.cache_clear()
    monkeypatch.setattr(iso, "_Search", Counting)
    assert run(["reproduce", "section5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"
    assert len(runs) == 13
