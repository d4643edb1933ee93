"""Record the pinned outputs of the fixed surface requests into reference.json.

    python3 perfbench/record_reference.py

Run it from the repository root, only when a change is meant to move these
numbers: the benchmark fails any request whose pinned outputs drift by more
than workloads.PIN_REL relative from the recorded values.  It runs one cycle
of each surface workload's request stream and records every request that
names a reference entry, so the requests are defined only in workloads.py.
"""

import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from laguerre import cli  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        for name, work in workloads.WORKLOADS.items():
            if work.mode != "warm":
                continue
            # The checks are not run, so the stream needs no reference values.
            cycle = workloads.cli_requests(name, 0, tmp, {})
            for req in itertools.islice(cycle, len(work.kinds)):
                if req.key is None:
                    continue
                if cli.main(req.argv + ["--out", out]) != 0:
                    raise SystemExit(f"{req.key}: request failed")
                reference[req.key] = workloads.pins(req.kind, json.loads(Path(out).read_text()))
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
