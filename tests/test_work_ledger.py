"""The work the benchmark runs do matches its pins in ``tests/work_ledger.json``.

``tests/work_ledger.py`` says what is counted.  A change that moves a count rewrites
the pins with ``python tests/work_ledger.py --write`` and says which counts moved and
why; a count that moves with no reason given is a finding, whatever the timings say.
"""

import json

from work_ledger import LEDGER, moved, run_all


def test_the_benchmark_runs_do_the_pinned_work():
    lines = moved(json.loads(LEDGER.read_text(encoding="utf-8")), run_all())
    assert not lines, "moved (run/part: key: pinned -> now):\n" + "\n".join(lines)
