"""Run one latclone CLI command with timing spans installed (traced runs only).

    python bench/cli_child.py SUMMARY_FILE VERB ARGS...

Behaves like ``latclone VERB ARGS...``: the same stdout, stderr and exit
status. It installs the span wrappers, calls ``latclone.cli.main`` and
writes the span summary to SUMMARY_FILE.
"""

import json
import sys
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(SRC))
    import latclone.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = latclone.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
