"""Run one `uval` command in this fresh interpreter and time it.

    python3 perfbench/cli_job.py RECORD_PATH [--trace] -- ARGS...

ARGS go to uval.cli.main unchanged and stdout is left to the command.
RECORD_PATH receives the time to import uval.cli, the time inside main(),
the exit code and calibration timings taken just before the import and
just after main() (see common.calibrate).  With --trace the tracer is
installed after the import and its counts are added to the record; the
spans go next to it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import calibrate


def main() -> int:
    record = Path(sys.argv[1])
    split = sys.argv.index("--")
    trace = "--trace" in sys.argv[2:split]
    argv = sys.argv[split + 1:]
    calibrations = [calibrate() for _ in range(3)]
    start = time.perf_counter()
    import uval.cli

    import_s = time.perf_counter() - start
    tracer = None
    if trace:
        if argv and argv[0] in ("mc", "selftest"):
            import uval.grassmann  # noqa: F401  (imported lazily by these commands)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = uval.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    calibrations += [calibrate() for _ in range(3)]
    info = {"import_s": import_s, "main_s": main_s, "code": code, "calibrations": calibrations}
    if tracer is not None:
        tracer.write_spans(record.with_suffix(".spans.tsv"))
        info["trace"] = tracer.snapshot()
    record.write_text(json.dumps(info), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
