"""``python -m repro`` entry point, and the installed ``repro`` command.

Artifact regeneration, tracing, and linting dispatch to the harness CLI
(:mod:`repro.harness.cli`).  The ``check`` subcommand dispatches here,
at the package root, because the verification oracle
(:mod:`repro.oracle`) sits *above* the harness in the layering DAG --
the harness CLI cannot import it.  ``pyproject.toml`` points the
``repro`` console script at :func:`main`, so both spellings run every
subcommand.
"""

import sys


def main(argv: "list[str] | None" = None) -> int:
    """Top-level dispatch; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        from repro.oracle.cli import main as check_main
        return check_main(argv[1:])
    from repro.harness.cli import main as harness_main
    return harness_main(argv)


if __name__ == "__main__":
    sys.exit(main())
