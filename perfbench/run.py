#!/usr/bin/env python3
"""Build and run Veil-Bench from the root of a Veil checkout.

    python3 perfbench/run.py --workload audit-smp|enclave-sql|fleet-http \
        --seed N --seconds S --trace 0|1

Builds perfbench/veilbench.exe with dune, then runs it with the same
arguments: one workload, one seed, one process.  The last line of
standard output is the JSON result.  Exits non-zero without a result
when the checkout has no Veil sources to build or the build fails, and
with exit code 1 when a correctness oracle fails.

Everything the build and the run write stays inside the checkout:
build output under _build/, compiler temporaries and traced spans
under perfbench/out/; the shared dune cache is off.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "veilbench.exe")
TMP = os.path.join("perfbench", "out", "tmp")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "run.py: no dune-project and lib/ here; run from the root of a Veil checkout\n"
        )
        return 2
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP))
    # build progress goes to stderr so stdout ends with the result line
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/veilbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
