"""Process entry of `python -m dephaselab` and the installed script.

Importing this module loads neither numpy nor the CLI: run does, with
the cyclic garbage collector off.
"""

import gc
import os
import sys


def run() -> None:
    """Import the CLI, run main, flush stdout and stderr, then end the
    process with os._exit.

    The CLI (numpy included) is imported with the cyclic collector
    disabled, and the heap it leaves is then frozen. Nearly all of it
    (modules, functions, classes) lives until the process ends, so the
    young-generation passes the import would trigger would scan it over
    and over to free almost nothing; once frozen, no later collection
    scans it either. The import's own cyclic garbage is kept. The
    collector is enabled again before main runs: without the freeze,
    its first pass would scan the whole import at once.

    os._exit skips the interpreter's finalization (a full garbage
    collection and module teardown) and atexit callbacks, since the CLI
    leaves nothing but these two streams to finish. A stream that is
    None (closed at start-up) has nothing to flush. A stream whose reader
    has gone (`dephaselab sweep ... | head -1`) raises BrokenPipeError,
    from main or from the flush: the process then ends at once with
    status 141 (128 + SIGPIPE, what a shell reports for such a writer)
    and nothing on stderr. Any other failed flush, exception or
    SystemExit from main (usage errors, --help) takes the interpreter's
    normal exit, which reports it as it always has.
    """
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    try:
        code = main()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except BrokenPipeError:
            raise
        except (OSError, ValueError):
            raise SystemExit(code)
    except BrokenPipeError:
        os._exit(141)
    os._exit(code)


if __name__ == "__main__":
    run()
