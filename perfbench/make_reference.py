"""Write lipschitz_reference.json: the lipschitz2d study rows per seed.

    python3 perfbench/make_reference.py 0 63

Run once at the commit that defines the benchmark; the lipschitz2d gate
compares every later run against these rows.
"""

import json
import os
import sys

import worker


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    import anisoflow as af
    import numpy as np
    table = {}
    for seed in range(first, last + 1):
        study = worker.Lipschitz2d()
        study.setup(af, np, seed)
        study.run()
        table[str(seed)] = study.ratios()
        print(seed, table[str(seed)], flush=True)
    with open(worker.LIPSCHITZ_REFERENCE, "w") as f:
        json.dump({"max_ratio": table}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
