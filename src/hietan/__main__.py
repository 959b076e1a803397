"""``python -m hietan``: the same command-line tool as the ``hietan`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
