"""The process entry point: `python -m ultragreedy` and the `ultragreedy`
console script both end through `run`.

`run` calls `cli.main` and then freezes the heap, moving every object still
alive into the garbage collector's permanent generation, so the collections
at interpreter shutdown have nothing left to traverse.  The rest of shutdown
runs as usual: atexit handlers, the flush of stdout and stderr, and module
teardown.  `cli.main` itself freezes nothing, because tests and the
benchmark's tracer call it in-process.
"""

import gc

from .cli import main


def run() -> int:
    """Run the CLI on `sys.argv` and return its exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
