"""Run one dickelab CLI command in a fresh interpreter, as the console script does.

    python3 launch.py STATS_JSON TRACE CLI_ARG...

Calls `dickelab.cli.main(CLI_ARG...)` and exits with its code. STATS_JSON
receives the time `import dickelab.cli` finished and, when TRACE is 1, the
spans recorded around the package's public functions.
"""

import json
import sys
import time


def main():
    stats_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import dickelab.cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = dickelab.cli.main(argv)
    with open(stats_path, "w") as fh:
        json.dump({"import_done": imported, "spans": tracer.spans if tracer else []}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
