"""Traced stand-in for ``python -m schurest.cli``, one command per process.

    python3 perfbench/cli_child.py SPANS_FILE <schurest arguments...>

Imports the CLI, binds the same span wrappers as the in-process tracer,
runs ``schurest.cli.main(argv)`` and writes the spans, the counters and
the import and main times to SPANS_FILE.  Stdout is the command's own
output, unchanged, so the benchmark checks it like an untraced child's.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from schurest import cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        tracer.dump(spans_path, {"import_s": import_s, "main_s": main_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
