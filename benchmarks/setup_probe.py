"""Set-up probe: a fresh interpreter imports pmqkd and runs one operation.

    PYTHONPATH=src python3 benchmarks/setup_probe.py '[["reproduce", "--bundled", "45"]]'

The argument is a JSON list of `pmqkd` argument lists, run in order through
`pmqkd.cli.main`.  The last line of standard output is a JSON object with the
seconds spent importing `pmqkd.cli`, the seconds spent in the calls, their
exit codes and what they printed.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    argvs = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import pmqkd.cli

    t1 = time.perf_counter()
    codes, stdouts = [], []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(pmqkd.cli.main(argv))
        stdouts.append(out.getvalue())
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_op_s": t2 - t1, "codes": codes,
                      "stdouts": stdouts, "module": pmqkd.cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
