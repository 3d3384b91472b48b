"""Run the apn-forge CLI with the benchmark's span recorder installed.

    PERFBENCH_SPANS=<file> PYTHONPATH=src python3 perfbench/traced_cli.py <cli arguments>

Stdout is the CLI's own. `apnforge.cli.main` itself is the span "cli.main",
the command's time after start-up and imports. The recorded spans go to
<file> as JSON rows when the command ends; the benchmark reads and deletes
the file.
"""

import json
import os
import sys

import tracer

import apnforge.cli


def main() -> int:
    recorder = tracer.Recorder()
    recorder.install()
    try:
        return recorder.wrap(apnforge.cli.main, "cli.main")(sys.argv[1:])
    finally:
        recorder.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
