"""The README's command-line examples, byte for byte.

Each example runs in-process in an empty output directory.  Its exit code,
stdout, stderr and every file it writes are hashed together, and the hash
must match the table, captured at commit 1f2f11f.  A change that moves any
printed digit fails here; a change that means to move one recaptures the
table and says why.
"""

import contextlib
import hashlib
import io
import pathlib
import shlex

import pytest

from fluxtube.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

#: sha256 of each example's exit code, stdout, stderr and written files.
GOLDEN = {
    "spectrum --alpha 0.5 --emax 4 --m=-4..4":
        "15059f53bb8e76cbe89c61d227f2fadd377fdc29f66eb9aae8c7faad6b0dd290",
    "spectrum --alpha 0.5 --emax 4 --m=-4..4 --si 2.5 --output spec.csv":
        "46a205a121b6c9288caf23d16d657f6b21ee46091bd533d6007e331eafa78c7b",
    "spectrum --alpha 1 --emax 4 --m=-3..3 --compare-vacancy":
        "39e51b0bebc79384cd0eb0f42af2e6a768455dcc7138c29df15c14a9fd5603d4",
    "wavefunction --alpha 0.5 --n 1 --m 0 --superpartner --format json":
        "72abdbe82b28aeff48959484aaa060fdee41a41a50e567c30e2390b9cc77016f",
    "wavefunction --alpha 0.5 --m 0 --zero-mode":
        "fc96afea69c09dddf805991db70bf1faf563f083dd83ece0d8c29125c6654f2a",
    "regularize --alpha 0.5 --m 0 --R 0.3,0.1,0.05 --nmax 2 --verify":
        "1b6ebe99088affc31e406d7644c6244bb75cda45f40242375cb6f9d041b6c35e",
    "verify":
        "f153ab9d373c74884a194c801f6a1f9d4ca44919bddc8875bf2cd424159a9825",
}

#: Not in the README: a shell too wide for M in double precision exits 1.
GOLDEN_ERRORS = {
    "regularize --alpha 0.4 --m 1 --R 30 --nmax 0":
        "8a58b7ea0d0c7d92a2175781ce8abf70f1c978d870db6806c91bdb7a8694874d",
}


def readme_commands() -> list[str]:
    """The ``fluxtube ...`` lines of the README, without the program name."""
    return [line.removeprefix("fluxtube ").strip()
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("fluxtube ")]


def run_digest(command: str, outdir: pathlib.Path, monkeypatch) -> str:
    """sha256 over exit code, stdout, stderr and the files written to ``outdir``."""
    monkeypatch.setenv("FLUXTUBE_OUTDIR", str(outdir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(shlex.split(command))
    digest = hashlib.sha256(f"{rc}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(outdir).as_posix()}\0".encode())
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_the_table_holds_every_readme_example():
    assert readme_commands() == list(GOLDEN)


@pytest.mark.parametrize("command, want", [*GOLDEN.items(), *GOLDEN_ERRORS.items()],
                         ids=[*GOLDEN, *GOLDEN_ERRORS])
def test_cli_bytes_match_the_golden_table(command, want, tmp_path, monkeypatch):
    assert run_digest(command, tmp_path, monkeypatch) == want
