"""Run one fpalg CLI command with the benchmark's tracer installed.

    python3 perfbench/cli_launcher.py STATS_JSON VERB [ARGS...]

Behaves like `python -m fpalg.cli VERB [ARGS...]` (same stdout, stderr and
exit code) and also writes the per-layer summary of the process to
STATS_JSON, with its spans beside it.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main():
    stats_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    t0 = perf_counter()
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]
    import fpalg.cli

    import_s = perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = fpalg.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(stats_path.with_suffix(".spans"))
        stats = {"import_s": import_s, "summary": tracer.summary(), "spans": tracer.span_count()}
        stats_path.write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
