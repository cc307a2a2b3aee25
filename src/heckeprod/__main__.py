"""``python -m heckeprod``: the command-line front end."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
