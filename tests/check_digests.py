"""Check every pinned command of ``digests.json`` against its recorded answer.

Usage: python tests/check_digests.py CMD...

CMD is the command that runs bcontact, for example ``bcontact`` or
``python -m bcontact``.  Each entry's argv is appended to it, its
``gamma`` text (if any) is its stdin and its ``env`` is added to the
environment.  The script prints one line per entry whose exit status,
stderr or stdout (its sha256 or line count) differs from the record, or
that runs past its time limit or peaks at its memory bound, and exits 1
if any entry fails.  It needs nothing but the standard library, so it
runs on an install without extras.

Each entry of ``digests.json`` holds:

- ``name``: for an entry Tier-1 checks, the pytest id of the test that
  checks it (that test finds its entries by this name or by argv), and
  otherwise a short label;
- ``argv``, and optionally ``gamma`` (stdin) and ``env``;
- ``sha256`` and ``lines`` (the number of newlines in stdout), or
  ``same_as``, the name of an entry whose stdout this one must equal;
- optionally ``status``, the exit status (0 if absent), and ``stderr``,
  the whole of stderr (empty if absent);
- optionally ``seconds``, the wall time the call must end within (it is
  killed then), and ``peak_mb``, a bound on the call's own peak RSS;
- optionally ``why``: what the answer pins, and when it was recorded.

A child's peak RSS starts at its parent's at fork, so the checker, a
small process, runs each call itself and reads that call's own peak with
``os.wait4``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
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


def mismatch(entry: dict, stdout: bytes, status: int = 0, stderr: bytes = b"") -> str | None:
    """How an answer (its stdout, exit status and stderr) differs from the
    entry's record, or None."""
    return _mismatch(entry, status, stderr, hashlib.sha256(stdout).hexdigest(),
                     stdout.count(b"\n"))


def _mismatch(entry: dict, status: int, stderr: bytes, digest: str, lines: int) -> str | None:
    if status != entry.get("status", 0):
        return f"exit status {status}, recorded {entry.get('status', 0)}"
    if stderr != entry.get("stderr", "").encode():
        return f"stderr {stderr.decode(errors='replace')!r}, recorded {entry.get('stderr', '')!r}"
    if lines != entry["lines"]:
        return f"{lines} lines, recorded {entry['lines']}"
    if digest != entry["sha256"]:
        return f"sha256 {digest}, recorded {entry['sha256']}"
    return None


def run(command: list[str], entry: dict) -> str | None:
    """Run ``entry`` through ``command``; how it failed, or None.  Stdout is
    hashed as it arrives, so a long listing is never held whole."""
    digest, lines = hashlib.sha256(), 0
    limit = entry.get("seconds")
    with tempfile.TemporaryFile() as err, subprocess.Popen(
        [*command, *entry["argv"]], stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
        env={**os.environ, **entry.get("env", {})},
    ) as proc:
        started = time.monotonic()
        timer = None
        if limit is not None:
            # os.kill, not proc.kill, which would reap the call before os.wait4.
            timer = threading.Timer(limit, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
        # A call may end before it reads its stdin.
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.write(entry.get("gamma", "").encode())
            proc.stdin.close()
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
        _, wait_status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - started
        if timer is not None:
            timer.cancel()
        # Reaped here, so the pipe's context must not wait for it again.
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        err.seek(0)
        stderr = err.read()
    if limit is not None and elapsed >= limit:
        return f"took {elapsed:.2f} s, limit {limit} s"
    reason = _mismatch(entry, proc.returncode, stderr, digest.hexdigest(), lines)
    # ru_maxrss is in KiB on Linux.
    peak = usage.ru_maxrss / 1024
    if reason is None and peak >= entry.get("peak_mb", float("inf")):
        return f"peak {peak:.1f} MB, bound {entry['peak_mb']} MB"
    return reason


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
