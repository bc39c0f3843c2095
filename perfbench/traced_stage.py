"""Run one lsm stage with the per-layer tracer installed.

Usage: python3 perfbench/traced_stage.py TRACE_JSON STAGE --config FILE [lsm options]

Everything after TRACE_JSON is handed to ``lsm.cli.main`` unchanged, so
the stage runs exactly as ``lsm STAGE --config FILE`` would. The trace is
written to TRACE_JSON when the stage returns, and the process exits with
the stage's exit code.
"""

import sys

import tracer


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    rec = tracer.Recorder()
    tracer.install(rec)
    from lsm.cli import main as lsm_main

    code = lsm_main(cli_args)
    rec.dump(trace_path, stage=cli_args[0], exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
