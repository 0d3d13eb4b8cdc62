"""Write ``expected.json``: the modelled values the checks compare to.

Run from the repository root only when the model is changed on purpose:

    python3 hostbench/record_expected.py

Fig. 3.1 demanded loads are the behaviour contract, so a change to any
of them must be a deliberate, explained commit.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from repro.perf.load import measure_load
    from repro.perf.sweep import window_for_rate
    from repro.replay import load_journal, replay_journal
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import FIG31_POINTS, REPLAY_JOURNAL, fig31_key

    journal = load_journal(BENCH_DIR.parent / REPLAY_JOURNAL)
    expected = {
        "fig31-point": {
            fig31_key(point): measure_load(
                point[0], point[1],
                window_for_rate(point[1], 0.0, point[2])).demanded_load
            for point in FIG31_POINTS},
        "replay-verify": {
            "journal": REPLAY_JOURNAL,
            "final_digest": replay_journal(journal).final_digest},
    }
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
