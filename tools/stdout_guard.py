"""Ends a tool quietly when the reader of its stdout stops reading.

    from stdout_guard import run
    run(main)

A tool piped into ``head`` meets a closed stdout at its next write or at the
flush at exit.  ``run`` turns that into one line on stderr and exit status
1 instead of a traceback, pointing stdout at ``os.devnull`` as
``inadmm.cli.main`` does.  The status is nonzero because the tool did not
finish: a check it makes after the closed write never ran.
"""

import os
import sys


def run(main):
    """Call ``main()`` and flush stdout; on a closed stdout, point it at
    ``os.devnull`` (so the flush at exit writes nowhere) and exit 1."""
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError as err:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit("%s: cannot write output: %s" % (os.path.basename(sys.argv[0]), err))
