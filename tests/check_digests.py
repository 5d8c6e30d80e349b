"""Check every pinned command of ``digests.json`` against its recorded stdout.

Usage: python tests/check_digests.py CMD...

CMD is the command that runs bcontact, for example ``bcontact`` or
``python -m bcontact``.  Each entry's argv is appended to it, its
``gamma`` text (if any) is its stdin and its ``env`` is added to the
environment.  The script prints one line per entry whose stdout's sha256
or line count differs from the recorded one, or whose exit status is not
0, and exits 1 if any entry fails.  It needs nothing but the standard
library, so it runs on an install without extras.

Each entry of ``digests.json`` holds:

- ``name``: for an entry Tier-1 checks, the pytest id of the test that
  checks it (that test finds its entries by this name or by argv), and
  otherwise a short label;
- ``argv``, and optionally ``gamma`` (stdin) and ``env``;
- ``sha256`` and ``lines`` (the number of newlines in stdout), or
  ``same_as``, the name of an entry whose output this one must equal;
- ``why``: what the output pins, and when it was recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def load() -> list[dict]:
    """The entries of ``digests.json``, each ``same_as`` entry given the
    sha256 and line count of the entry it names."""
    entries = json.loads(DIGESTS.read_text(encoding="utf-8"))
    by_name = {entry["name"]: entry for entry in entries}
    for entry in entries:
        if "same_as" in entry:
            recorded = by_name[entry["same_as"]]
            entry["sha256"], entry["lines"] = recorded["sha256"], recorded["lines"]
    return entries


def mismatch(entry: dict, stdout: bytes) -> str | None:
    """How ``stdout`` differs from the entry's recorded output, or None."""
    return _mismatch(entry, hashlib.sha256(stdout).hexdigest(), stdout.count(b"\n"))


def _mismatch(entry: dict, digest: str, lines: int) -> str | None:
    if lines != entry["lines"]:
        return f"{lines} lines, recorded {entry['lines']}"
    if digest != entry["sha256"]:
        return f"sha256 {digest}, recorded {entry['sha256']}"
    return None


def run(command: list[str], entry: dict) -> str | None:
    """Run ``entry`` through ``command``; how it failed, or None.  Stdout is
    hashed as it arrives, so a long listing is never held whole."""
    digest, lines = hashlib.sha256(), 0
    with subprocess.Popen(
        [*command, *entry["argv"]], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env={**os.environ, **entry.get("env", {})},
    ) as proc:
        proc.stdin.write(entry.get("gamma", "").encode())
        proc.stdin.close()
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    if proc.returncode:
        return f"exit status {proc.returncode}"
    return _mismatch(entry, digest.hexdigest(), lines)


def check(command: list[str], entries: list[dict]) -> list[str]:
    """One line per entry that fails through ``command``, naming it."""
    failures = []
    for entry in entries:
        reason = run(command, entry)
        if reason is not None:
            failures.append(f"{entry['name']}: {reason}")
    return failures


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    failures = check(argv, load())
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
