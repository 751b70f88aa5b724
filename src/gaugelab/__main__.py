"""``python -m gaugelab``: the same command line as the ``gaugelab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
