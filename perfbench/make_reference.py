"""Write ``reference.json``: the answers the benchmark checks its ops against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the root of a finmod checkout, only when a change is meant to
alter these answers, and say so in the change.  It records:

- ``verify``: for each instance name of the seed-0 corpus at the
  benchmark's budget, the sha256 of the block of lines each instance of that
  name printed in the serial ``run_suite`` report text, and their outcome
  counts.  Every seed at that budget selects the same
  instances, so the blocks serve every seed.
- ``module_queries``: the checked value of every query on every module.
"""

from __future__ import annotations

import json
import os

from plan import BUDGET, MODULES, QUERIES
from sample import REFERENCE, build_module, instance_blocks, query_value


def main():
    import finmod

    summary = finmod.run_suite(finmod.generate_corpus(0, BUDGET))
    verify = {
        name: {"sha256": hashes, "counts": counts}
        for name, (hashes, counts) in instance_blocks(summary, len(finmod.STATEMENT_IDS)).items()
    }

    queries = {}
    for name, *_ in MODULES:
        module = build_module(name)
        queries[name] = {}
        for q in QUERIES:
            args = (module, module) if q == "hom_group" else (module,)
            queries[name][q] = query_value(q, getattr(finmod, q)(*args))

    with open(REFERENCE, "w") as f:
        json.dump({"verify": verify, "module_queries": queries}, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE)}: {len(verify)} instances, {summary.counts}")


if __name__ == "__main__":
    main()
