"""Record the SHA-256 of every file the default seed's jobs write.

    python3 perfbench/record_digests.py

Run it on the code whose output bytes are the reference.  A benchmark run
on the default seed then counts every job whose files differ as failed.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    import workloads

    record = {}
    for name, cls in workloads.WORKLOADS.items():
        if not cls.outputs:
            continue
        workdir = run.OUT / "work" / name
        workdir.mkdir(parents=True, exist_ok=True)
        wl = cls(workloads.DEFAULT_SEED, workdir, workloads.band_threads())
        record[name] = {}
        for job in wl.jobs:
            wl.execute(job)
            record[name][job.name] = wl.digests(job)
    workloads.DIGEST_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {workloads.DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
