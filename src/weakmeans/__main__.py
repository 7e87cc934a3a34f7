"""``python -m weakmeans``: the same command line as the ``weakmeans`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
