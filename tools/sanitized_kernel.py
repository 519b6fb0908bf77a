#!/usr/bin/env python3
"""Run pytest against an AddressSanitizer/UBSan build of the C kernel.

Swaps :data:`repro.memsim.ckernel.CFLAGS` for a sanitized build before
anything loads the kernel, then runs pytest in this process with the
given arguments. The flags are part of the library's build digest, so
the sanitized library is cached beside the normal one, never in its
place. The sanitizer runtimes must be loaded before the interpreter
starts; when they are not, the script re-executes itself with
``LD_PRELOAD`` set to the host gcc's ``libasan``/``libubsan`` and
``ASAN_OPTIONS=detect_leaks=0`` (the interpreter's own allocations are
never freed at exit, and are not the kernel's).

    python tools/sanitized_kernel.py -q tests/memsim/test_ckernel_inputs.py

Any sanitizer report aborts the run with a non-zero exit, the report
on standard error.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The sanitized build: no optimisation that hides a bad access, frame
#: pointers and debug info for readable reports, and UBSan findings
#: fatal. ``-ffp-contract=off`` stays, as in the normal build.
SANITIZE_CFLAGS = (
    "-O1", "-g", "-fno-omit-frame-pointer", "-fPIC", "-shared",
    "-ffp-contract=off", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
)

RUNTIMES = ("libasan.so", "libubsan.so")


def _runtime_paths(cc: str) -> list:
    paths = []
    for name in RUNTIMES:
        path = subprocess.run(
            [cc, f"-print-file-name={name}"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        if not os.path.isabs(path):
            sys.exit(f"{cc} has no {name}; cannot run the sanitized kernel")
        paths.append(path)
    return paths


def main(argv: list) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.memsim import ckernel

    cc = ckernel.find_compiler()
    if cc is None:
        sys.exit("no C compiler on PATH; cannot build the sanitized kernel")
    if "libasan" not in os.environ.get("LD_PRELOAD", ""):
        env = dict(os.environ)
        env["LD_PRELOAD"] = ":".join(_runtime_paths(cc))
        env.setdefault("ASAN_OPTIONS", "detect_leaks=0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.call([sys.executable, __file__, *argv], env=env)

    import pytest

    ckernel.CFLAGS = SANITIZE_CFLAGS
    lib = ckernel.load_kernel()
    if lib is None:
        sys.exit("the sanitized kernel did not build or load")
    print(f"sanitized kernel: {lib._name}", flush=True)
    # Capture at the sys level only: a sanitizer report goes to file
    # descriptor 2 as the process aborts, and fd-level capture would
    # swallow it.
    return pytest.main(["--capture=sys", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
