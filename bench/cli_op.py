"""Run one cyclebetti command in this interpreter, as the console script does.

    python3 bench/cli_op.py ARGS...                      # untraced
    python3 bench/cli_op.py --trace-out PREFIX ARGS...   # traced

The traced form wraps the library's layer boundaries, opens a `cli.main`
span around the command, and at exit writes PREFIX.json (per-name totals)
and PREFIX.spans (every span).  cyclebetti must be importable.
"""

import sys


def main(argv: list[str]) -> None:
    if argv[:1] != ["--trace-out"]:
        from cyclebetti.cli import main as cli_main

        cli_main(args=argv)
        return

    import json
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from bench.tracer import Tracer

    from cyclebetti.cli import main as cli_main

    prefix, args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            cli_main(args=args)
    finally:
        tracer.end_op()
        with open(prefix + ".json", "w") as out:
            json.dump(tracer.summary(), out)
        tracer.write_spans(prefix + ".spans")


if __name__ == "__main__":
    main(sys.argv[1:])
