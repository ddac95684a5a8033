"""`python -m placto`: the same command line as the `placto` script."""

from .cli import run

if __name__ == "__main__":
    run()
