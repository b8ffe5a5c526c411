"""One item set in a fresh process: set up, then run the CLI calls of a plan.

    python3 perfbench/child.py PLAN.json

The plan names the source tree, the CLI argument lists, the output file
and whether to trace.  Set-up is what every CLI user pays before the first
item: the imports, `corpus()` and `builtin_templates()`.  The child
reports monotonic timestamps, which the parent compares with the moment it
started the process, and the peak resident memory.
"""

import json
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import knotmoves.cli as cli

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # Move-invariance chains that end in site exhaustion leave no trace in
    # the JSONL, so their achieved moves are counted here; the hook runs
    # once per chain and costs nothing measurable.
    chains = {"moves": 0, "exhausted": 0}
    report = cli.move_invariance_report

    def counted(*args, **kwargs):
        rep = report(*args, **kwargs)
        chains["moves"] += sum("delta" in s for s in rep["steps"])
        chains["exhausted"] += any(s.get("note") == "site exhaustion"
                                   for s in rep["steps"])
        return rep

    cli.move_invariance_report = counted

    sys.modules["knotmoves.corpus"].corpus()
    sys.modules["knotmoves.templates"].builtin_templates()
    setup_done = time.monotonic()

    with open(plan["out"], "w") as out:
        saved, sys.stdout = sys.stdout, out
        try:
            for argv in plan["calls"]:
                cli.main(argv)
        finally:
            sys.stdout = saved
    done = time.monotonic()

    inv = sys.modules["knotmoves.invariants"]
    result = {
        "setup_done": setup_done, "done": done, "chains": chains,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "memo_entries": len(getattr(inv, "_bracket_memo", ()))
        + len(getattr(inv, "_conway_memo", ())),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(plan["spans"])
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
