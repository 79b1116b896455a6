#!/usr/bin/env python3
"""Build raestat and the benchmark from source, then run the benchmark.

    python3 perfbench/run.py --workload dash-hot|adhoc-cold|ingest-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a raestat checkout.  `dune build` output goes to
stderr (the shared dune cache is off, so the build writes only under
`_build/`); the benchmark prints its result as the last line of stdout.
"""
import os
import shutil
import sys


def main():
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin/dune")):
        print("perfbench: run from the root of a raestat checkout "
              "(dune-project, lib/ and bin/ are needed to build)", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    build = ([dune] if dune else ["opam", "exec", "--", "dune"]) + [
        "build", "--root", ".", "--cache=disabled",
        "./bin/raestat_cli.exe", "./perfbench/bench.exe"]
    pid = os.fork()
    if pid == 0:
        os.dup2(2, 1)
        try:
            os.execvp(build[0], build)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print("perfbench: build failed (exit %d)" % code, file=sys.stderr)
        return 2
    bench = "_build/default/perfbench/bench.exe"
    # Replace this process: signals reach the benchmark, which reaps the
    # daemon it started.
    os.execv(bench, [bench] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
