"""Write ``digests.json``: the sha256 of the stdout of every invocation of
every workload at the benchmark's default seed.

The digests pin the CLI output byte for byte, so record them only on a
commit whose output is the reference, and never to make a failing check
pass.  Run from the repository root:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json

import run
import workloads


def main() -> None:
    cli = run.import_cli()
    run.WORKDIR.mkdir(exist_ok=True)
    tables = {}
    for workload in workloads.WORKLOADS:
        table = {}
        for inv in workloads.build(workload, run.DEFAULT_SEED, str(run.WORKDIR)):
            _, rc, stdout = run.invoke(cli, inv.argv)
            if rc != 0:
                raise SystemExit(f"{inv.key}: exit {rc}; not recording")
            table[inv.key] = hashlib.sha256(stdout.encode()).hexdigest()
        tables[workload] = table
    doc = {"seed": run.DEFAULT_SEED, "workloads": tables}
    with open(run.DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
