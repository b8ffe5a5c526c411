"""The knotmoves benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It needs nothing but Python and the
source tree under src/.  Each item set runs in a fresh single-threaded
process (perfbench/child.py) that sets up as a CLI user does and then makes
the CLI calls of one workload, so memos start cold as they do for users.
Item sets run one after another, never side by side.

Workloads (inputs come from --seed and the frozen tables in data/):
  search             the acceptance `searches` suite as `knotmoves search`
                     calls; exercises simplify, canonical_key and face walks.
  families           the verify_type, move_invariance_report, group_checks
                     and certificates suites, seeds drawn from --seed;
                     exercises band_sum/family, gauss v2/v3 and sampling.
  invariants_cold    `knotmoves invariants` on distinct R-perturbed corpus
                     diagrams, half PD and half DT, with a fresh cache file;
                     exercises Conway, the bracket and parse_dt.
  invariants_cached  the same CLI on relabelled PD copies of a cold input,
                     against a cache the program wrote beforehand, untimed;
                     every line is a cache hit, so it measures the lookup.

With --trace 0 the benchmark repeats item sets for --seconds and prints the
end-to-end metrics: the mean time of a pass over the workload's input and
the median set-up time.  With --trace 1 it runs the first
item set once plainly and once with spans around every public knotmoves
function (perfbench/spans.py), and prints the per-layer metrics and the
tracing overhead.  Every output line below each CLI header is compared
with the outputs recorded in data/; a difference sets "correct" to false.
The last line of stdout is the result object; the line before it records
the environment, the input properties and the output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import inputs

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
# Stay well inside the 180 s a run may take.
DEADLINE_S = 165.0
# Set-up is sampled at least this often per run, with extra set-up-only
# processes when the item sets alone give fewer samples.
MIN_SETUPS = 5

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
    ("ok_frac", "ratio"), ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit, better).  Spans are named
# <module>.<function>; see spans.py.
PER_LAYER = [
    ("diagram.canonical_key.calls", "count", "lower"),
    ("diagram.canonical_key.self_s", "s", "lower"),
    ("diagram.face_walks.calls", "count", "lower"),
    ("diagram.face_walks.self_s", "s", "lower"),
    ("diagram.parse_dt.calls", "count", "lower"),
    ("diagram.parse_dt.self_s", "s", "lower"),
    ("diagram.parse_pd.calls", "count", "lower"),
    ("diagram.parse_pd.self_s", "s", "lower"),
    ("moves.simplify.calls", "count", "lower"),
    ("moves.simplify.self_s", "s", "lower"),
    ("moves.greedy_reduce.calls", "count", "lower"),
    ("moves.greedy_reduce.self_s", "s", "lower"),
    ("moves.triangle_slide_sites.calls", "count", "lower"),
    ("moves.triangle_slide_sites.self_s", "s", "lower"),
    ("moves.r2_add_sites.calls", "count", "lower"),
    ("moves.replay.self_s", "s", "lower"),
    ("search.delta_unknot.calls", "count", "lower"),
    ("search.delta_unknot.self_s", "s", "lower"),
    ("search.bfs_path.self_s", "s", "lower"),
    ("search.expansions", "count", "lower"),
    ("search.found_ratio", "ratio", "higher"),
    ("invariants.conway.calls", "count", "lower"),
    ("invariants.conway.self_s", "s", "lower"),
    ("invariants.jones.calls", "count", "lower"),
    ("invariants.jones.self_s", "s", "lower"),
    ("invariants.vassiliev_report.self_s", "s", "lower"),
    ("invariants.memo_entries", "count", "lower"),
    ("gauss.v2.calls", "count", "lower"),
    ("gauss.v2.self_s", "s", "lower"),
    ("gauss.v3.calls", "count", "lower"),
    ("gauss.v3.self_s", "s", "lower"),
    ("templates.band_sum.calls", "count", "lower"),
    ("templates.band_sum.self_s", "s", "lower"),
    ("templates.family.calls", "count", "lower"),
    ("templates.family.self_s", "s", "lower"),
    ("templates.random_insert_chord.calls", "count", "lower"),
    ("templates.random_insert_chord.useful_ratio", "ratio", "higher"),
    ("templates.realize_by_lower.self_s", "s", "lower"),
    ("tangles.simplify_tangle.self_s", "s", "lower"),
    ("tangles.tangle_key.calls", "count", "lower"),
    ("finitetype.random_family.calls", "count", "lower"),
    ("finitetype.random_family.useful_ratio", "ratio", "higher"),
    ("finitetype.alternating_sum.self_s", "s", "lower"),
    ("finitetype.verify_type.achieved_ratio", "ratio", "higher"),
    ("cli.cache.load_s", "s", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("corpus.corpus.self_s", "s", "lower"),
    ("run.fail_frac", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class ChildFailed(RuntimeError):
    pass


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Check:
    """Outcome of comparing one item set's output with the recorded one."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class ItemSet:
    calls: list[list[str]]
    check: Callable[[list[str], dict], Check]
    files: dict[str, str] = field(default_factory=dict)
    prepare: Callable[[], None] | None = None


def sections(lines: list[str]) -> list[list[tuple[str, dict]]]:
    """The records of each CLI call, split at the header lines."""
    out: list[list[tuple[str, dict]]] = []
    for line in lines:
        rec = json.loads(line)
        if rec.get("record") == "header":
            out.append([])
        elif out:
            out[-1].append((line, rec))
        else:
            raise ValueError("output does not start with a header")
    return out


def output_digest(lines: list[str]) -> str:
    """SHA-256 of the JSONL below the header lines."""
    return sha("\n".join(line for line in lines
                         if json.loads(line).get("record") != "header"))


# -- workloads ------------------------------------------------------------------


class Workload:
    """Makes item sets from the seed; `props` describes the input.

    Item set rnd belongs to part rnd % parts.  The parts of a workload are
    fixed subsets of its input and together make the whole of it.
    """

    parts = 1

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.small = small
        self.expected = inputs.load_expected()
        self.props: dict = {}

    def prepare(self, run) -> None:
        """Untimed work before the first item set."""

    def item_set(self, rnd: int) -> ItemSet:
        raise NotImplementedError


class Search(Workload):
    parts = inputs.PARTS

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        cases = self.expected["search"]
        if small:
            cases = self.expected["search"] = [c for c in cases if c["n"] <= 4]
        hist = Counter(c["n"] for c in cases)
        self.props = {"cases": len(cases), "crossings": [[n, hist[n]] for n in sorted(hist)],
                      "pd_share": sum("X" in c["code"] for c in cases) / len(cases),
                      "repeated_key_share": 0.0, "budget": inputs.SEARCH_BUDGET}

    def item_set(self, rnd: int) -> ItemSet:
        cases = {c["case"]: c for c in self.expected["search"]}
        calls = inputs.search_cases(self.expected, self.seed, rnd)

        def check(lines: list[str], child: dict) -> Check:
            res = Check(attempted=len(calls))
            secs = sections(lines)
            if len(secs) != len(calls):
                res.failed = len(calls)
                res.problems.append(f"{len(secs)} outputs for {len(calls)} searches")
                return res
            for (name, _), sec in zip(calls, secs):
                want = cases[name]
                bad = len(sec) != 1 or sha(sec[0][0]) != want["sha"]
                if bad:
                    res.problems.append(f"{name}: output differs from the recorded one")
                if bad or not sec[0][1].get("found"):
                    res.failed += 1
            return res

        return ItemSet([argv for _, argv in calls], check)


class Families(Workload):
    def item_set(self, rnd: int) -> ItemSet:
        config = inputs.families_config(self.expected, self.seed, rnd)
        kinds = self.expected["families"]
        if self.small:
            keep = [i for i, k in enumerate(kinds)
                    if k["spec"]["suite"] in ("group_checks", "certificates")]
            kinds = [kinds[i] for i in keep]
            config["suites"] = [config["suites"][i] for i in keep]
        path = os.path.join(WORK, "families.json")
        self.props = {"suites": config["suites"]}

        def check(lines: list[str], child: dict) -> Check:
            res = Check()
            (sec,) = sections(lines)
            groups: list[list[tuple[str, dict]]] = [[]]
            for line, rec in sec:
                groups[-1].append((line, rec))
                if rec.get("record") == "suite-result":
                    groups.append([])
            verdict = groups.pop()
            if len(groups) != len(kinds):
                res.problems.append(f"{len(groups)} suite outputs for {len(kinds)} suites")
                res.attempted = res.failed = 1
                return res
            all_pass = True
            for kind, spec, group in zip(kinds, config["suites"], groups):
                want = kind["digests"][str(spec["seed"])]
                all_pass = all_pass and want["pass"]
                if sha("\n".join(line for line, _ in group)) != want["sha"]:
                    res.problems.append(f"{spec['suite']} seed {spec['seed']}: "
                                        "output differs from the recorded one")
                _account(spec, [rec for _, rec in group], child["chains"], res)
            want_verdict = json.dumps({"pass": all_pass, "record": "verdict"},
                                      sort_keys=True)
            if [line for line, _ in verdict] != [want_verdict]:
                res.problems.append("verdict differs from the recorded one")
            return res

        return ItemSet([["verify", "--config", path]], check,
                       files={path: json.dumps(config, sort_keys=True)})


def _account(spec: dict, recs: list[dict], chains: dict, res: Check) -> None:
    """Count attempted and failed items of one verify suite.

    A trial fails when its sum is nonzero or missing, and every requested
    trial that never produced a sum is a failure too.  A move-invariance
    move counts only when it was made: chains that stop at site exhaustion
    fall short of the requested moves.
    """
    kind = spec["suite"]
    if kind == "verify_type":
        sums = [r["sum"] for r in recs if r.get("record") == "trial"]
        missing = sum(s is None for s in sums)
        res.attempted += spec["trials"] + missing
        res.failed += (sum(s is not None and s != 0 for s in sums) + missing
                       + max(0, spec["trials"] - (len(sums) - missing)))
    elif kind == "move_invariance_report":
        res.attempted += spec["moves"] + 1
        res.failed += (max(0, spec["moves"] - chains["moves"])
                       + sum(r.get("pass") is False for r in recs
                             if r.get("record") == "move-invariance")
                       + sum(not r.get("found") for r in recs
                             if r.get("record") == "order3-witness"))
    elif kind == "group_checks":
        res.attempted += 1
        res.failed += not recs[0].get("pass")
    elif kind == "certificates":
        certs = [r for r in recs if r.get("record") == "certificate"]
        res.attempted += len(certs)
        res.failed += sum(any(r.get(k) is False for k in ("brunnian", "found", "replays"))
                          for r in certs)


def _check_invariants(items: list[dict]) -> Callable[[list[str], dict], Check]:
    def check(lines: list[str], child: dict) -> Check:
        res = Check(attempted=len(items))
        (sec,) = sections(lines)
        if len(sec) != len(items):
            res.failed = len(items)
            res.problems.append(f"{len(sec)} records for {len(items)} lines")
            return res
        for item, (line, rec) in zip(items, sec):
            name = rec.pop("name", None)
            same = (line == json.dumps({**rec, "name": name}, sort_keys=True)
                    and name == item["id"] and rec.get("key") == item["key"]
                    and sha(json.dumps(rec, sort_keys=True)) == item["sha"])
            if not same:
                res.problems.append(f"{item['id']}: output differs from the recorded one")
            if (not same or rec.get("record") == "error"
                    or False in rec.get("crosschecks", {}).values()):
                res.failed += 1
        return res

    return check


class InvariantsCold(Workload):
    parts = inputs.PARTS

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        self.pool = inputs.load_pool()
        if small:
            self.pool = [row for row in self.pool if row["n"] <= 6]
        self.props = inputs.input_properties(self.pool)

    def item_set(self, rnd: int) -> ItemSet:
        items = inputs.cold_items(self.pool, self.seed, rnd)
        return self._invariants(items, os.path.join(WORK, "cold-cache.jsonl"))

    def _invariants(self, items: list[dict], cache: str,
                    source: str | None = None) -> ItemSet:
        """One `invariants` call; the cache starts empty or as a copy of source."""
        path = os.path.join(WORK, "lines.tsv")

        def prepare() -> None:
            if os.path.exists(cache):
                os.remove(cache)
            if source is not None:
                shutil.copyfile(source, cache)

        return ItemSet([["invariants", path, "--cache", cache]],
                       _check_invariants(items),
                       files={path: inputs.invariants_text(items)},
                       prepare=prepare)


class InvariantsCached(InvariantsCold):
    parts = 1

    def prepare(self, run) -> None:
        self.cold = [row for part in range(inputs.PARTS)
                     for row in inputs.cold_items(self.pool, self.seed, part)]
        self.source = os.path.join(WORK, "written-cache.jsonl")
        run(self._invariants(self.cold, self.source), False)

    def item_set(self, rnd: int) -> ItemSet:
        items = inputs.cached_items(self.cold, self.seed, rnd)
        self.props = inputs.input_properties(items)
        return self._invariants(items, os.path.join(WORK, "cached-cache.jsonl"),
                                source=self.source)


WORKLOADS = {"search": Search, "families": Families,
             "invariants_cold": InvariantsCold, "invariants_cached": InvariantsCached}


# -- running item sets ----------------------------------------------------------


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.hash_seeds: list[str] = []
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.traced = 0

    def __call__(self, item_set: ItemSet, trace: bool) -> dict:
        """Run one item set in a fresh process and check its output."""
        for path, text in item_set.files.items():
            with open(path, "w") as fh:
                fh.write(text)
        if item_set.prepare is not None:
            item_set.prepare()
        res = self.spawn(item_set.calls, trace)
        with open(res["out"]) as fh:
            lines = fh.read().splitlines()
        try:
            res["check"] = item_set.check(lines, res)
        except (ValueError, KeyError, IndexError) as exc:
            res["check"] = Check(1, 1, [f"unreadable output: {exc!r}"])
        self.problems.extend(res["check"].problems)
        self.digests.append(output_digest(lines))
        return res

    def spawn(self, calls: list[list[str]], trace: bool = False) -> dict:
        plan = {"src": SRC, "calls": calls, "trace": trace,
                "out": os.path.join(WORK, "out.jsonl"),
                "result": os.path.join(WORK, "result.json"),
                "spans": os.path.join(WORK, f"spans-{self.traced}.bin")}
        self.traced += trace
        plan_path = os.path.join(WORK, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        # A random hash seed per process, recorded, so that output that
        # depends on it fails the digest check instead of passing by luck.
        hash_seed = os.environ.get("PYTHONHASHSEED") or str(
            random.SystemRandom().randrange(1, 2**32))
        self.hash_seeds.append(hash_seed)
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("out of time before starting an item set")
        with open(os.path.join(WORK, "child.err"), "w") as err:
            started = time.monotonic()
            proc = subprocess.Popen([sys.executable, CHILD, plan_path], cwd=ROOT,
                                    env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise ChildFailed("item set did not finish in time")
        ended = time.monotonic()
        if code != 0:
            with open(os.path.join(WORK, "child.err")) as fh:
                tail = fh.read()[-2000:]
            raise ChildFailed(f"item set process exited with {code}:\n{tail}")
        with open(plan["result"]) as fh:
            res = json.load(fh)
        res["out"] = plan["out"]
        res["setup_s"] = res["setup_done"] - started
        res["wall_s"] = res["done"] - res["setup_done"]
        res["elapsed_s"] = ended - started
        return res


def end_to_end(rounds: list[dict], parts: int, setups: list[float]) -> dict:
    """Means per part, summed over the parts: the cost of the whole input.

    The speed of a shared 2-core machine drifts in phases of seconds, so an
    average over every pass in the run is steadier than the median of the
    few passes a run holds.  Set-up is sampled often, so it is a median.
    """
    by_part = [rounds[p::parts] for p in range(parts)]
    wall = sum(statistics.mean(r["wall_s"] for r in rs) for rs in by_part)
    ok = sum(statistics.mean(r["check"].attempted - r["check"].failed for r in rs)
             for rs in by_part)
    attempted = sum(r["check"].attempted for r in rounds)
    failed = sum(r["check"].failed for r in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": ok / wall,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Span totals over one traced item set of every part."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    for res in traced:
        calls.update(res["trace"]["calls"])
        self_s.update(res["trace"]["self_s"])
        counts.update(res["trace"]["counts"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[span]
        elif stat == "self_s":
            values[name] = self_s[span]
    for stat, table in (("calls", calls), ("self_s", self_s)):
        values[f"moves.simplify.{stat}"] = (table["moves.simplify"]
                                            + table["moves.simplify_with_script"])
    attempted = sum(r["check"].attempted for r in plain)
    values.update({
        "search.expansions": counts["search.expansions"],
        "search.found_ratio": ratio(counts["search.found"], counts["search.searches"]),
        "invariants.memo_entries": sum(r["memo_entries"] for r in traced),
        "templates.random_insert_chord.useful_ratio": ratio(
            counts["templates.random_insert_chord.useful"],
            calls["templates.random_insert_chord"]),
        "finitetype.random_family.useful_ratio": ratio(
            counts["finitetype.random_family.useful"], calls["finitetype.random_family"]),
        "finitetype.verify_type.achieved_ratio": ratio(
            counts["finitetype.verify_type.achieved"],
            counts["finitetype.verify_type.requested"]),
        "cli.cache.load_s": self_s["cli.cache.load"],
        "cli.cache.hit_ratio": ratio(counts["cli.cache.hits"], calls["cli.cache.get"]),
        "run.fail_frac": ratio(sum(r["check"].failed for r in plain), attempted),
        "trace.overhead_s": (sum(r["wall_s"] for r in traced)
                             - sum(r["wall_s"] for r in plain)),
        "trace.spans": sum(r["trace"]["spans"] for r in traced),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result object, run record)."""
    env = environment()
    started = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    wl = WORKLOADS[workload](seed, small)
    runner = Runner(started + DEADLINE_S)
    wl.prepare(runner)
    rounds = []
    if trace:
        rounds = [runner(wl.item_set(p), False) for p in range(wl.parts)]
        traced = [runner(wl.item_set(p), True) for p in range(wl.parts)]
        metrics = per_layer(rounds, traced)
    else:
        measuring = time.monotonic()
        while True:
            rounds.append(runner(wl.item_set(len(rounds)), False))
            if (len(rounds) >= wl.parts
                    and time.monotonic() - measuring + rounds[-1]["elapsed_s"] > seconds):
                break
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(runner.spawn([])["setup_s"])
        metrics = end_to_end(rounds, wl.parts, setups)
    result = {"correct": not runner.problems,
              "attempted": sum(r["check"].attempted for r in rounds),
              "failed": sum(r["check"].failed for r in rounds),
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "item_sets": len(rounds),
              "item_set_wall_s": [r["wall_s"] for r in rounds],
              "environment": {**env, "hash_seeds": runner.hash_seeds},
              "input": wl.props, "output_digests": runner.digests,
              "problems": runner.problems[:20]}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "knotmoves", "__init__.py")):
        print(f"no knotmoves source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
