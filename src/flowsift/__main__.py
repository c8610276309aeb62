"""``python -m flowsift``: the same entry point as the ``flowsift`` script."""
from flowsift.cli import run

if __name__ == "__main__":
    run()
