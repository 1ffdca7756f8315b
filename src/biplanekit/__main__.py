"""Run the command line interface: python -m biplanekit ..."""

from .cli import main

if __name__ == "__main__":
    main()
