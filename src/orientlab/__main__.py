"""``python -m orientlab``: the command-line front end of :mod:`orientlab.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
