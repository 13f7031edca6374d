"""Provenance recorded with every result and golden file."""

from __future__ import annotations

import hashlib
import os
import platform
import time


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: str) -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "refartin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def stamp(root: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
