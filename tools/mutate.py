"""Mutation pass: apply one small slip at a time to a copy of src/ and see whether tier-1 notices.

Each mutant changes one site in one file of a scratch copy of ``src/``:

    conj   drop a ``.conj()`` call
    T      drop a ``.T`` transpose
    -1j    flip ``-1j`` to ``+1j``
    max    swap ``max`` and ``min`` in a call: the builtins, ``np.max``/``np.min`` and the
           ``.max()``/``.min()`` methods (an attribute such as ``float_info.max`` is not a call)

Sites are found with ``tokenize``, so strings (docstrings among them) and comments are never
touched; a mutant that does not parse is skipped. For each mutant the tier-1 suite runs with
``-x`` against the copy (``PYTHONPATH`` puts it first), and the mutant is killed if the suite
fails or runs past ``TIMEOUT`` seconds. The unmutated copy must pass first. The survivors are
listed at the end; the exit code is 0 whether or not any survive. Standard library only.

    python tools/mutate.py [file ...]            # default: every src/disd/*.py
"""

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900.0  # seconds a suite run may take; tier-1 takes about a minute


def sites(text: str) -> list[tuple[str, int, int, int, str]]:
    """(operator, line, start column, end column, replacement) of each site in a source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.NL, tokenize.COMMENT)]
    found = []
    swap = {"max": "min", "min": "max"}
    for i, tok in enumerate(tokens):
        ahead = [t.string for t in tokens[i + 1:i + 4]]
        if tok.type == tokenize.NAME and tok.string in swap and ahead[:1] == ["("]:
            found.append(("max", tok.start[0], tok.start[1], tok.end[1], swap[tok.string]))
        if tok.type != tokenize.OP:
            continue
        if tok.string == "." and ahead == ["conj", "(", ")"]:
            found.append(("conj", tok.start[0], tok.start[1], tokens[i + 3].end[1], ""))
        elif tok.string == "." and ahead[:1] == ["T"] and tokens[i + 1].type == tokenize.NAME:
            found.append(("T", tok.start[0], tok.start[1], tokens[i + 1].end[1], ""))
        elif tok.string == "-" and ahead[:1] == ["1j"] and tok.start[0] == tokens[i + 1].start[0]:
            found.append(("-1j", tok.start[0], tok.start[1], tok.end[1], "+"))
    return found


def mutant(text: str, site) -> str | None:
    """``text`` with one site applied, or None if the result does not parse."""
    _, line, start, end, replacement = site
    lines = text.splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:start] + replacement + lines[line - 1][end:]
    out = "".join(lines)
    try:
        compile(out, "<mutant>", "exec")
    except SyntaxError:
        return None
    return out


def suite_env(src: Path) -> dict:
    """The environment that puts the copy ``src`` first on the import path."""
    # no bytecode: a mutant and its restored file can share a size and an mtime second
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_suite(src: Path) -> tuple[str, float]:
    """('passed' | 'failed' | 'timeout', seconds) of tier-1 with -x against the copy ``src``."""
    env = suite_env(src)
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    return ("passed" if proc.returncode == 0 else "failed"), time.monotonic() - start


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="files under src/ to mutate (default: src/disd/*.py)")
    args = ap.parse_args(argv)
    files = [Path(f).resolve() for f in args.files] or sorted((ROOT / "src" / "disd").glob("*.py"))
    plan = []
    for f in files:
        text = f.read_text(encoding="utf-8")
        plan += [(f, text, site) for site in sites(text)]

    work = Path(tempfile.mkdtemp(prefix="disd-mutate-"))
    copy = work / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        imported = subprocess.run([sys.executable, "-c", "import disd; print(disd.__file__)"],
                                  env=suite_env(copy), capture_output=True, text=True).stdout
        if not Path(imported.strip()).resolve().is_relative_to(copy.resolve()):
            print(f"the suite would import disd from {imported.strip()!r}, not the copy")
            return 1
        status, secs = run_suite(copy)
        print(f"unmutated: {status} in {secs:.0f} s", flush=True)
        if status != "passed":
            return 1
        survivors = []
        for f, text, site in plan:
            op, line, col = site[:3]
            name = f"{f.relative_to(ROOT)}:{line}:{col + 1} {op}"
            changed = mutant(text, site)
            if changed is None:
                print(f"{name}: skipped, does not parse", flush=True)
                continue
            target = copy / f.relative_to(ROOT / "src")
            target.write_text(changed, encoding="utf-8")
            try:
                status, secs = run_suite(copy)
            finally:
                target.write_text(text, encoding="utf-8")
            verdict = "survived" if status == "passed" else f"killed ({status})"
            print(f"{name}: {verdict} in {secs:.0f} s", flush=True)
            if status == "passed":
                survivors.append(name)
        print(f"{len(plan)} sites, {len(survivors)} survived")
        for name in survivors:
            print(f"  survivor: {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
