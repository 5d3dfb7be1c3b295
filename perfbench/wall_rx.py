"""One wall tile receiver process for the ``wall_1080p_intra`` workload.

Wraps :class:`repro.wall.receiver.WallReceiver` with an ``on_frame``
timestamp (``time.monotonic``, which is system-wide on Linux, so the
broadcaster's publish stamps compare directly) and writes the receiver's
summary plus ``[display_index, t]`` pairs as JSON to ``--out``.

    python3 perfbench/wall_rx.py --control SOCK --tid 0 --out rx0.json
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--control", required=True, help="broadcast control socket path")
    ap.add_argument("--tid", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.wall.receiver import WallReceiver

    shown = []
    with WallReceiver(
        ("unix", args.control), args.tid, name=f"tile{args.tid}",
        on_frame=lambda idx, _frame: shown.append((idx, time.monotonic())),
        connect_timeout=30.0,
    ) as rx:
        summary = rx.run()
    Path(args.out).write_text(json.dumps({"summary": summary, "shown": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
