"""Run one pareto-judge command in this interpreter, as the console script would.

    PYTHONPATH=src python3 e2ebench/child.py [--trace OUT.json] <pareto-judge arguments>

The package is not installed and has no ``__main__``, so the benchmark
starts every command through this file. With ``--trace``, the layer entry
points are wrapped (see spans.py) and the spans are written to OUT.json
when the command returns.
"""

import sys

from pareto_judge import cli


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace"]:
        return cli.run(argv)
    import spans

    tracer = spans.Tracer()
    tracer.install()
    status = tracer.wrap(cli.run, "cli")(argv[2:])
    tracer.dump(argv[1], status)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
