"""Run one conflictlab command line in this process with tracing on.

    python bench/launcher.py SPANS.npz -- --config run.cfg --out DIR [--seed N]

installs the span wrappers of tracing.py, calls conflictlab.cli.main with
the arguments after ``--``, saves the spans to SPANS.npz and exits with the
command's exit code.  The cli-cold workload starts it in place of
``python -m conflictlab.cli`` for its traced rounds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS.npz -- CLI-ARGS...", file=sys.stderr)
        return 64
    tracer = Tracer()
    tracer.install()
    from conflictlab import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
