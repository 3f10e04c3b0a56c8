"""Run one `fglcalc` operation as its own process, the way the console script
does (`fglcalc.cli.main(argv)`), and report measurements on stderr.

    python3 bench/launch.py <mode> <fglcalc arguments...>

mode is one of
  run    the plain CLI; only the moment `load_law` returns is recorded
  setup  exit as soon as `load_law` returns (a set-up probe)
  time   per-layer spans on series, fgl, calculus, vertex and cli
  ring   the same spans plus ring call counts and ring self time

stdout carries the CLI payload untouched.  The last stderr line is
`FGLBENCH <json>` with the monotonic clock reading when `load_law`
returned, the process's CPU time and max RSS, and the spans when traced.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARK = "FGLBENCH "


def _report(info):
    ru = resource.getrusage(resource.RUSAGE_SELF)
    info["cpu_s"] = ru.ru_utime + ru.ru_stime
    info["maxrss_kb"] = ru.ru_maxrss
    sys.stdout.flush()
    sys.stderr.write(MARK + json.dumps(info, sort_keys=True) + "\n")
    sys.stderr.flush()


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from fglcalc import cli

    info = {"mode": mode}
    tracer = None
    if mode in ("time", "ring"):
        from layers import Tracer
        tracer = Tracer()
        tracer.install(ring=mode == "ring")
    traced_load = cli.load_law

    def load_law(cfg):
        law = traced_load(cfg)
        info.setdefault("setup_end", time.monotonic())
        if mode == "setup":
            _report(info)
            os._exit(0)
        return law

    cli.load_law = load_law
    code = cli.main(argv)
    if tracer is not None:
        info["trace"] = tracer.report()
    _report(info)
    return code


if __name__ == "__main__":
    sys.exit(main())
