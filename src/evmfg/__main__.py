"""``python -m evmfg``: the same command line as the ``evmfg`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
