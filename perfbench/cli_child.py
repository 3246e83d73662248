"""One `superdual` command in a fresh interpreter, as the console script runs it.

    python3 perfbench/cli_child.py <superdual arguments...>

The console script is `from superdual.cli import main; sys.exit(main())`;
this bootstrap does the same.  When PERFBENCH_TRACE_OUT names a file, it
first patches the layer functions with span-recording wrappers (see
spans.py), times the `superdual.cli` import, and writes the span summary to
that file after `main` returns.
"""

import os
import sys
import time


def run():
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from superdual.cli import main

        return main(sys.argv[1:])
    t0 = time.perf_counter()
    import superdual.cli

    import_s = time.perf_counter() - t0
    from spans import Recorder

    rec = Recorder()
    rec.install()
    try:
        return superdual.cli.main(sys.argv[1:])
    finally:
        summary = rec.summary()
        summary["counters"]["cli.import_s"] = import_s
        import json

        with open(trace_out, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    code = run()
    sys.stdout.flush()
    sys.exit(code)
