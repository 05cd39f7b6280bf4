#!/usr/bin/env python3
"""Find library functions that no shipped executable reaches.

Usage:
    tools/deadcode.py targets BUILD_DIR
    tools/deadcode.py check ALLOWLIST BUILD_DIR [BUILD_DIR...]

Both commands read the build's target list from the CMake file API
(codemodel-v2), so the set of binaries comes from the build and not from
a hand-kept list. Each BUILD_DIR must have been configured with an
empty `.cmake/api/v1/query/codemodel-v2` file present.

`targets` prints the targets the check needs built: every static library
and every executable whose CMakeLists.txt is not under tests/.

`check` takes the global text (`nm` type T) symbols of every `libgap_*`
archive, subtracts every symbol that some shipped executable of any
BUILD_DIR kept, and compares what is left with ALLOWLIST. The trees are
expected to be -O0 with -ffunction-sections -Wl,--gc-sections, so a
function that no executable can call is dropped from every binary and
no caller can hide it by inlining. It fails (exit 1) when a symbol is
unreferenced and not on the allowlist, or when an allowlist entry is
stale: it is referenced now, or no archive defines it.

ALLOWLIST holds one demangled signature per line, exactly as `nm -C`
prints it, followed by `# reason`. Blank lines and lines starting with
`#` are ignored.
"""

import glob
import json
import os
import subprocess
import sys


def codemodel_targets(build_dir):
    """(name, type, source dir, artifact paths) for every target."""
    replies = sorted(glob.glob(
        os.path.join(build_dir, ".cmake/api/v1/reply/index-*.json")))
    if not replies:
        sys.exit(f"deadcode: no CMake file-API reply in '{build_dir}'; "
                 "configure it with .cmake/api/v1/query/codemodel-v2 present")
    reply_dir = os.path.dirname(replies[-1])

    def load(name):
        with open(os.path.join(reply_dir, name), encoding="utf-8") as f:
            return json.load(f)

    index = load(os.path.basename(replies[-1]))
    codemodel = load(index["reply"]["codemodel-v2"]["jsonFile"])
    out = []
    for ref in codemodel["configurations"][0]["targets"]:
        t = load(ref["jsonFile"])
        artifacts = [os.path.join(build_dir, a["path"])
                     for a in t.get("artifacts", [])]
        out.append((t["name"], t["type"], t["paths"]["source"], artifacts))
    return out


def is_shipped(kind, source):
    return kind == "EXECUTABLE" and not (
        source == "tests" or source.startswith("tests/"))


def nm_names(path, types=None):
    """Demangled names of the symbols `path` defines, optionally only
    those of the given nm types."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(parts[2])
    return names


def read_allowlist(path):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            sig, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                sys.exit(f"deadcode: {path}:{n}: expected "
                         "'<signature> # <reason>'")
            entries[sig.strip()] = n
    return entries


def check(allowlist_path, build_dirs):
    defined = {}  # symbol -> archive that defines it
    kept = set()
    binaries = []
    for i, build_dir in enumerate(build_dirs):
        for name, kind, source, artifacts in codemodel_targets(build_dir):
            # The archives come from the first tree; the others only add
            # binaries that link the same sources.
            if (i == 0 and kind == "STATIC_LIBRARY"
                    and name.startswith("gap_")):
                for a in artifacts:
                    for sym in nm_names(a, types={"T"}):
                        defined[sym] = name
            elif is_shipped(kind, source):
                for a in artifacts:
                    kept |= nm_names(a)
                    binaries.append(name)

    unreferenced = set(defined) - kept
    allow = read_allowlist(allowlist_path)
    dead = sorted(unreferenced - set(allow))
    stale = sorted(set(allow) - unreferenced)

    print(f"deadcode: {len(binaries)} shipped executables, "
          f"{len(defined)} global functions in {len(set(defined.values()))} "
          f"libgap_* archives, {len(unreferenced)} unreferenced, "
          f"{len(allow)} allowlisted")
    for sym in dead:
        print(f"  unreferenced, not allowlisted: {sym}  [lib{defined[sym]}]")
    for sym in stale:
        why = "now referenced" if sym in defined else "no archive defines it"
        print(f"  stale allowlist entry ({why}): "
              f"{allowlist_path}:{allow[sym]}: {sym}")
    if dead or stale:
        print("deadcode: FAIL — delete the unreferenced functions (or give "
              "them a shipped caller), or allowlist an oracle with a reason; "
              "remove stale entries")
        return 1
    print("deadcode: OK")
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "targets":
        for name, kind, source, _ in codemodel_targets(argv[1]):
            if kind == "STATIC_LIBRARY" or is_shipped(kind, source):
                print(name)
        return 0
    if len(argv) >= 3 and argv[0] == "check":
        return check(argv[1], argv[2:])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
