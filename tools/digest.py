"""One digest of every benchmark operation's full result, per workload.

    python3 tools/digest.py

Run from anywhere; it works on the checkout that contains this file.  For
each workload of ``bench/workloads.py`` it builds the corpus of seeds 1-3 as
``bench/run.py`` does, runs every operation once in this process, and prints
one line, ``<workload> <ops> <sha256>``, the hash taken over the repr of
every result in corpus order.  A ``cli`` result is the exit code, stdout and
stderr of ``cli.main`` and the text of any file the command wrote with
``--out``.  A failed operation counts as the name and message of its
exception.  The corpus files go to a fresh temporary directory whose path is
replaced by ``<work>`` in every result, so two checkouts that give the same
results print the same lines, and a change that should not move any output
can be checked by running this in both trees.  Standard library only.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def results(wl, seed: int, work: Path):
    """The repr of each result of the workload's corpus for one seed."""
    corpus = wl.build(seed, work)
    run = getattr(wl, "run_inprocess", wl.run)
    for op in corpus.ops:
        try:
            res = run(op)
        except Exception as exc:  # a failure is a result too
            res = ("!", type(exc).__name__, str(exc))
        argv = op.query if wl.name == "cli" else []
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            res = (res, out.read_text(encoding="utf-8") if out.is_file() else None)
        yield repr(res).replace(str(work), "<work>")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    for name, wl in workloads.WORKLOADS.items():
        h, count = hashlib.sha256(), 0
        for seed in (1, 2, 3):
            with tempfile.TemporaryDirectory() as tmp:
                for text in results(wl, seed, Path(tmp)):
                    h.update(text.encode())
                    h.update(b"\n")
                    count += 1
        print(f"{name} {count} {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
