"""Runs zstates CLI calls for run.py in a process of their own.

    python3 bench/worker.py <checkout>/src

Only the interpreter, zstates and this loop live in the process, so its peak
resident memory is the program's own: the plan documents are written and
every output is checked by the parent.  Requests come one JSON object a line
on stdin; each gets one JSON line back on stdout.

    {"import": true}
        drop every zstates module, collect garbage, then time a fresh import;
        answers {"seconds"}
    {"argv": [...], "out": path, "fresh": bool}
        re-import zstates when `fresh` (untimed), collect garbage, then time
        cli.main(argv) with its stdout written to `out`; answers
        {"seconds", "code", "err"} or, when it raised, {"seconds", "error"}
    {"exit": true}
        answers {"peak_rss_kb"} and exits
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def drop_zstates() -> None:
    for name in [n for n in sys.modules if n == "zstates" or n.startswith("zstates.")]:
        del sys.modules[name]


def import_cli(src: Path):
    import zstates.cli
    if Path(zstates.__file__).resolve().parent.parent != src:
        raise ImportError(f"zstates imported from {zstates.__file__}")
    return zstates.cli


def run_op(cli, argv: list[str], out: str) -> dict:
    err = io.StringIO()
    with open(out, "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the op failed; report it
            first = (str(exc).splitlines() or [""])[0]
            return {"seconds": time.perf_counter() - t0,
                    "error": f"{type(exc).__name__}: {first}"}
        seconds = time.perf_counter() - t0
    return {"seconds": seconds, "code": code, "err": err.getvalue()[-2000:]}


def main() -> None:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    replies = sys.stdout
    cli = import_cli(src)
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("exit"):
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        elif request.get("import"):
            drop_zstates()
            gc.collect()
            t0 = time.perf_counter()
            cli = import_cli(src)
            reply = {"seconds": time.perf_counter() - t0}
        else:
            if request["fresh"]:
                drop_zstates()
                cli = import_cli(src)
            gc.collect()
            reply = run_op(cli, request["argv"], request["out"])
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if request.get("exit"):
            return


if __name__ == "__main__":
    main()
