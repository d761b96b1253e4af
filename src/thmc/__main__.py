"""``python -m thmc``: the ``thmc`` command line, runnable from a checkout with ``PYTHONPATH=src``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
