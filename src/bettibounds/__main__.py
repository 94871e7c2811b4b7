"""``python -m bettibounds``: the command line, also from a plain checkout."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
