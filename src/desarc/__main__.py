"""The `desarc` process: `python -m desarc` and the `desarc` console script.

Both call `run()`, which runs `cli.main`, flushes stdout and stderr and
ends the process with `os._exit`, skipping the interpreter's teardown (the
clearing of every module and the last collections over what `site` and
desarc leave alive; README "Startup" times it).  Nothing in desarc
registers an `atexit` handler, and every file a command opens is closed in
a `with` block.  No other module's `atexit` handler runs either, so a
coverage tool measures the CLI through `cli.main` in-process.

The exit code is the one the interpreter gives for the SystemExit of
`cli.main`: None is 0, an int is itself, and anything else is printed on
stderr and is 1.  If stdout cannot be flushed after a successful command,
`run()` prints `Error: cannot write standard output: <reason>` and exits
2; a failed command has said why already and keeps its code.  (The
interpreter would retry those bytes at exit and exit 120.)  If stderr
cannot be flushed, the interpreter ends the process as usual.  Any other
exception of `cli.main` propagates unchanged.
"""

import os
import sys

from .cli import main


def _exit_code(code) -> int:
    if code is None:
        return 0
    if isinstance(code, int):
        return code
    print(code, file=sys.stderr)
    return 1


def run():
    """Run the command line in sys.argv and end the process."""
    try:
        main()
        code = 0
    except SystemExit as exc:
        code = _exit_code(exc.code)
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if not code:
                print(f"Error: cannot write standard output: {exc.strerror}",
                      file=sys.stderr)
                code = 2
        sys.stderr.flush()
    except Exception:
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
