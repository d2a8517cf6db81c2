"""Record the digests of every deterministic CLI output the cli-session draws from.

    python3 perfbench/record_references.py

Run it from the repository root, only at a commit whose output is the
reference: the benchmark fails any later output that differs byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def main() -> int:
    commands = [(argv, None) for argv in inputs.generate_pool() + inputs.tables_pool()]
    commands += [(argv, k) for k, argv in inputs.vacuum_pool()]
    references = {}
    os.makedirs(run.WORK, exist_ok=True)
    for argv, k in commands:
        stdin = run.vacuum_json(k) if k is not None else None
        child = run.spawn(run.CLI + argv, stdin=stdin)
        reason = (f"exit {child.code}: {child.stderr}" if child.code != 0
                  else checks.check_closed_forms(argv, child.stdout))
        if reason:
            print(f"error: {' '.join(argv)}: {reason}", file=sys.stderr)
            return 1
        references[inputs.digest_key(argv, k)] = checks.digest(child.stdout)
    with open(checks.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(references)} digests in {checks.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
