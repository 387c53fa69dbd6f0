"""Start ``repro.service.server.run_service`` for the service-mix workload.

    python3 perfbench/serve.py --root STATE --out RESULT.json [--trace]

Serves with fsync on until SIGTERM, then writes the process's peak RSS
and, with ``--trace``, every span the shims recorded to ``--out``.
Traced and untraced runs use this same launcher, so both have the same
process layout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from measure import peak_rss_mib
    from repro.service.server import run_service
    from tracing import Tracer, install

    tracer = Tracer()
    if args.trace:
        install(tracer)
    code = run_service(args.root, port=0, fsync=True)
    Path(args.out).write_text(json.dumps(
        {"peak_rss_mib": peak_rss_mib(), "spans": tracer.spans}
    ))
    return code


if __name__ == "__main__":
    sys.exit(main())
