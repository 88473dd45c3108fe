"""``python -m slab``: the slab command-line front end."""
from slab.cli import main

if __name__ == "__main__":
    main(prog_name="slab")
