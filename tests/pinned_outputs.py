"""Pinned CLI outputs: one manifest, one comparison routine.

`pinned_outputs.json` (next to this file) lists every embedrank command whose
output is pinned.  Each entry holds the `argv`, the `exit` code and exactly one
expectation:

- `stdout_sha256`: the SHA-256 of stdout;
- `stdout`: stdout's exact text;
- `error`: the error class in the JSON line on stderr.

An entry may add a `why`.  Argv tokens that name one of the manifest's
`inputs` (a `gen` argv, written with `-o` into a temporary directory before
any entry runs), one of its `texts` (a file's exact text, written there too,
for designs no `gen` makes) or one of its `bundled` designs (read from the
package data) are replaced by that file's path.

The module imports only the standard library, so it runs against an install
without the test extra.  `tests/test_cli.py` runs every entry in-process
through `cli.run`; run as a script, it runs them against an installed
`embedrank` executable, prints one line per entry and exits 1 on any mismatch:

    python tests/pinned_outputs.py /path/to/venv/bin/embedrank
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

MANIFEST = Path(__file__).with_name("pinned_outputs.json")
EXPECTATIONS = ("stdout_sha256", "stdout", "error")

# argv -> (exit code, stdout, stderr)
Invoke = Callable[[list], tuple]


def load(path: Path = MANIFEST) -> dict:
    """The manifest at `path`, checked: one expectation per entry, no repeated argv."""
    manifest = json.loads(Path(path).read_text())
    seen = set()
    for entry in manifest["entries"]:
        argv = " ".join(entry["argv"])
        kinds = [k for k in EXPECTATIONS if k in entry]
        if len(kinds) != 1:
            raise ValueError(f"{argv}: needs exactly one of {EXPECTATIONS}, has {kinds}")
        if argv in seen:
            raise ValueError(f"{argv}: listed twice")
        seen.add(argv)
    return manifest


def make_inputs(manifest: dict, invoke: Invoke, workdir: Path, data_dir: Path) -> dict:
    """Write the manifest's inputs into `workdir`; map every input name to its path."""
    paths = {name: str(Path(data_dir) / name) for name in manifest["bundled"]}
    for name, argv in manifest["inputs"].items():
        path = str(Path(workdir) / name)
        code, _, err = invoke([*argv, "-o", path])
        if code != 0:
            raise RuntimeError(f"input {name} ({' '.join(argv)}) exited {code}: {err.strip()}")
        paths[name] = path
    for name, text in manifest["texts"].items():
        path = Path(workdir) / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _error_class(stderr: str) -> str | None:
    for line in stderr.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj.get("error")
    return None


def check(entry: dict, invoke: Invoke, paths: dict) -> str | None:
    """None when the entry's command gives its pinned result; else the mismatch."""
    code, out, err = invoke([paths.get(a, a) for a in entry["argv"]])
    if code != entry["exit"]:
        last = err.strip().splitlines()[-1:]
        return f"exit {code}, expected {entry['exit']}" + (f" ({last[0]})" if last else "")
    if "stdout_sha256" in entry:
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != entry["stdout_sha256"]:
            return f"stdout sha256 {got}, expected {entry['stdout_sha256']}"
    elif "stdout" in entry:
        if out != entry["stdout"]:
            return f"stdout {out!r}, expected {entry['stdout']!r}"
    else:
        got = _error_class(err)
        if got != entry["error"]:
            return f"error {got}, expected {entry['error']}"
    return None


def check_all(manifest: dict, invoke: Invoke, paths: dict, report=print) -> list[str]:
    """Check every entry, reporting one line each; return the mismatch lines."""
    failures = []
    for entry in manifest["entries"]:
        mismatch = check(entry, invoke, paths)
        line = f"{' '.join(entry['argv'])}: {mismatch or 'ok'}"
        report(line)
        if mismatch:
            failures.append(line)
    return failures


def _package_data() -> Path:
    """The installed package's data directory, found without importing the package."""
    spec = importlib.util.find_spec("embedrank")
    if spec is None or not spec.submodule_search_locations:
        raise SystemExit("embedrank is not importable by this interpreter")
    return Path(spec.submodule_search_locations[0]) / "data"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check every pinned CLI output against an embedrank executable.")
    parser.add_argument("script", help="the embedrank executable to run")
    args = parser.parse_args(argv)

    def invoke(cmd: list) -> tuple:
        proc = subprocess.run([args.script, *cmd], capture_output=True)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    manifest = load()
    with tempfile.TemporaryDirectory() as tmp:
        paths = make_inputs(manifest, invoke, Path(tmp), _package_data())
        failures = check_all(manifest, invoke, paths)
    print(f"{len(manifest['entries']) - len(failures)} ok, {len(failures)} mismatched")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
