import sys

from benchmarks.layers.bench import main

if __name__ == "__main__":
    sys.exit(main())
