"""Command-line entry point: ``python -m pdflow examples example2``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
