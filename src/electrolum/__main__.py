"""Process entry of ``python -m electrolum`` and of the ``electrolum`` script."""
import gc

from .cli import main


def run() -> int:
    """:func:`cli.main`, then freeze the heap: exit skips a full collection of it."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
