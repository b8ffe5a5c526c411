import gc
import hashlib
import json
import subprocess
import sys
import warnings

import pytest

from knotmoves import cli, finitetype
from knotmoves.corpus import corpus
from knotmoves.diagram import Crossing, Diagram, emit_pd, parse_dt
from knotmoves.invariants import vassiliev_report
from knotmoves.moves import greedy_reduce, random_perturb
from knotmoves.templates import builtin_templates

CLI = [sys.executable, "-m", "knotmoves.cli"]


def run(*args, stdin=None):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True,
                          input=stdin, timeout=600)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    return proc.returncode, records, proc.stderr


def strip_header(records):
    return [r for r in records if r.get("record") != "header"]


@pytest.fixture()
def corpus_file(tmp_path):
    p = tmp_path / "knots.tsv"
    p.write_text("trefoil\t4 6 2\nunknot\t\nbroken\t3 5\nfig8\t4 6 8 2\n")
    return p


def test_invariants_command(corpus_file, tmp_path):
    code, records, _ = run("invariants", str(corpus_file),
                           "--cache", str(tmp_path / "cache.jsonl"))
    assert code == 0  # at least one success despite the broken line
    data = strip_header(records)
    byname = {r["name"]: r for r in data}
    assert byname["trefoil"]["v2"] == 1
    assert byname["unknot"]["v2"] == 0 and byname["unknot"]["v3"] == 0
    assert byname["fig8"]["v2"] == -1
    assert byname["broken"]["record"] == "error"
    assert all(byname[n]["crosschecks"]["v2_conway"] for n in ["trefoil", "fig8"])


def test_invariants_cache_reuse_byte_identical(corpus_file, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code1, rec1, _ = run("invariants", str(corpus_file), "--cache", str(cache))
    size_after_first = cache.stat().st_size
    code2, rec2, _ = run("invariants", str(corpus_file), "--cache", str(cache))
    assert code1 == code2 == 0
    assert cache.stat().st_size == size_after_first  # warm cache appends nothing
    assert strip_header(rec1) == strip_header(rec2)


def test_invariants_on_a_dt_code_of_15_crossings(tmp_path):
    # The right-handed torus knot T(2,15) as a DT code and as PD.
    n = 15
    dt = " ".join(str((2 * i + n) % (2 * n) + 1) for i in range(n))
    pd = " ".join(f"X({(2 * k + n - 2) % (2 * n) + 1},{2 * k},{(2 * k + n - 1) % (2 * n) + 1},"
                  f"{2 * k - 1})" for k in range(1, n + 1))
    p = tmp_path / "t215.tsv"
    p.write_text(f"dt\t{dt}\npd\t{pd}\n")
    code, records, _ = run("invariants", str(p))
    assert code == 0
    by_dt, by_pd = strip_header(records)
    assert by_dt["record"] == by_pd["record"] == "knot"
    for field in ("key", "v2", "v3", "conway"):
        assert by_dt[field] == by_pd[field], field


def test_invariants_all_failures_exit_2(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\t3 5\nb\t4 4 2\n")
    code, records, _ = run("invariants", str(p))
    assert code == 2


def test_invariants_rejects_a_nonplanar_pd_code(tmp_path):
    # It used to parse, and the Jones step then died on a half-integer exponent.
    p = tmp_path / "bad.tsv"
    p.write_text("np\tX(14,2,1,1) X(12,2,13,3) X(4,4,5,3) X(5,7,6,6) X(10,8,11,7) "
                 "X(9,8,10,9) X(13,11,14,12)\n")
    code, records, err = run("invariants", str(p))
    assert code == 2
    [rec] = strip_header(records)
    assert rec["record"] == "error" and rec["name"] == "np"
    assert "no planar realization" in rec["error"]
    assert "Traceback" not in err


def test_a_nonplanar_pd_code_is_an_error_with_any_cache(tmp_path):
    # Planar lines and relabelled copies of a non-planar code in one file:
    # the non-planar lines give the same error records with a cold cache, a
    # warm one, and a cache holding a valid record under their key.
    nonplanar = [(14, 2, 1, 1), (12, 2, 13, 3), (4, 4, 5, 3), (5, 7, 6, 6), (10, 8, 11, 7),
                 (9, 8, 10, 9), (13, 11, 14, 12)]
    lines = [("trefoil", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"),
             ("np", " ".join("X(%d,%d,%d,%d)" % c for c in nonplanar)),
             ("trefoil+10", "X(11,14,12,15) X(13,16,14,11) X(15,12,16,13)"),
             ("np+30", " ".join("X(%d,%d,%d,%d)" % tuple(e + 30 for e in c) for c in nonplanar)),
             ("np+60", " ".join("X(%d,%d,%d,%d)" % tuple(e + 60 for e in c) for c in nonplanar))]
    p = tmp_path / "mixed.tsv"
    p.write_text("".join(f"{name}\t{code}\n" for name, code in lines))
    errors = [{"record": "error", "name": name, "line": i,
               "error": f"PD code {code!r} has no planar realization"}
              for i, (name, code) in enumerate(lines, 1) if name.startswith("np")]
    cache = tmp_path / "cache.jsonl"
    runs = []
    for _ in ("cold", "warm"):
        code, records, err = run("invariants", str(p), "--cache", str(cache))
        assert code == 0 and "Traceback" not in err
        runs.append(strip_header(records))
        assert [r for r in runs[-1] if r["record"] == "error"] == errors
    assert runs[0] == runs[1]
    [rec] = [json.loads(line) for line in cache.read_text().splitlines()]
    rec["key"] = Diagram(map(Crossing, nonplanar)).canonical_key
    cache.write_text(cache.read_text() + json.dumps(rec, sort_keys=True) + "\n")
    with cli.Cache(str(cache)) as loaded:
        assert loaded.get(rec["key"]) == rec["payload"]
    code, records, _ = run("invariants", str(p), "--cache", str(cache))
    assert code == 0 and strip_header(records) == runs[0]


def test_family_command():
    code, records, _ = run("family", "--base", "", "--orders", "2,2,2",
                           "--seed", "9")
    assert code == 0
    data = strip_header(records)
    members = [r for r in data if r["record"] == "family-member"]
    sums = [r for r in data if r["record"] == "family-sums"]
    assert len(members) == 8
    assert sums[0]["v2_sum"] == 0 and sums[0]["v3_sum"] == 0


def test_family_single_chord_difference():
    code, records, _ = run("family", "--base", "4 6 2", "--orders", "2",
                           "--seed", "3")
    assert code == 0
    sums = [r for r in strip_header(records) if r["record"] == "family-sums"][0]
    assert len([r for r in strip_header(records)
                if r["record"] == "family-member"]) == 2


@pytest.mark.parametrize("orders", ["5", "1", "0", "-2", "2,5"])
def test_family_orders_without_a_template_exit_2(orders):
    code, records, err = run("family", "--base", "4 6 2", f"--orders={orders}")
    assert code == 2 and records == []
    want = f"bad input: orders must be template orders {sorted(builtin_templates())}"
    assert err.startswith(want) and "Traceback" not in err


def test_family_l0():
    code, records, _ = run("family", "--base", "4 6 2", "--orders", "")
    assert code == 0
    members = [r for r in strip_header(records) if r["record"] == "family-member"]
    assert len(members) == 1 and members[0]["v2"] == 1
    # The one member is the base, so the sums are its values.
    assert strip_header(records)[-1] == {"record": "family-sums", "orders": [],
                                         "v2_sum": 1, "v3_sum": 1}


def test_search_and_replay(tmp_path):
    code, records, _ = run("search", "--from", "4 6 2", "--to", "",
                           "--movekinds", "B2")
    assert code == 0
    rec = strip_header(records)[0]
    assert rec["found"] and rec["moves_used"] == 1
    script = tmp_path / "path.json"
    script.write_text(json.dumps(rec["script"]))
    code, records, _ = run("path-replay", "--diagram", "4 6 2",
                           "--script", str(script), "--target", "unknot")
    assert code == 0
    assert strip_header(records)[0]["ok"]


@pytest.mark.parametrize("args, message", [
    (["--to", "", "--movekinds", "B5"], "unsupported move kinds: ['B5']"),
    (["--to", "", "--movekinds", "B2,"], "unsupported move kinds: ['']"),
    (["--to", "", "--budget", "-1"], "budget must be non-negative, got -1"),
    (["--delta-unknot", "--budget", "-5"], "budget must be non-negative, got -5"),
    (["--to", "", "--movekinds", "B4"], "unsupported move kinds: ['B4']"),
])
def test_search_bad_input_exit_2(args, message):
    code, records, err = run("search", "--from", "4 6 2", *args)
    assert code == 2 and records == []
    assert err == f"bad input: {message}\n"


def test_delta_unknot_command():
    code, records, _ = run("search", "--from", "4 6 8 2", "--delta-unknot")
    assert code == 0
    assert strip_header(records)[0]["found"]


def test_verify_command_empty_suites(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": []}))
    code, records, _ = run("verify", "--config", str(cfg))
    assert code == 0
    assert strip_header(records)[-1] == {"record": "verdict", "pass": True}


def test_verify_command_schema_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [{"suite": "nope"}]}))
    code, _, err = run("verify", "--config", str(cfg))
    assert code == 2
    cfg.write_text("{not json")
    code, _, _ = run("verify", "--config", str(cfg))
    assert code == 2
    cfg.write_text("[]")  # valid JSON, but no object
    code, records, err = run("verify", "--config", str(cfg))
    assert (code, records) == (2, []) and "Traceback" not in err


_VT = {"suite": "verify_type", "phi": "v2", "orders": [2, 2], "trials": 1}


@pytest.mark.parametrize("spec", [
    {**_VT, "orders": [5]},
    {**_VT, "phi": "v9"},
    {k: v for k, v in _VT.items() if k != "trials"},
    {"suite": "move_invariance_report", "l": 4},
    ["verify_type"],
    {"suite": "searches", "budget": "x"},
    {"suite": "searches", "max_crossings": 2},
    {"suite": "move_invariance_report", "max_crossings": -1, "moves": 1},
    {"suite": "move_invariance_report", "chain": "x"},
    {"suite": "searches", "require_rate": "x"},
    {"suite": "certificates", "budget": -5},
    {"suite": "group_checks", "pairs": -1},
    {"suite": "group_checks", "pairs": 1, "pairz": -1, "max_crosings": 3},
], ids=["orders", "phi", "trials", "l", "not-a-dict", "budget", "searches-max-crossings",
        "max-crossings", "chain", "require-rate", "certificates-budget", "pairs",
        "unknown-field"])
def test_verify_malformed_suite_spec_exit_2(tmp_path, spec):
    # A good suite first: every spec is checked before any output.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [{"suite": "group_checks", "pairs": 1}, spec]}))
    proc = subprocess.run(CLI + ["verify", "--config", str(cfg)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_verify_command_small_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "suites": [
        {"suite": "verify_type", "phi": "v2", "orders": [2, 2, 2],
         "trials": 10, "seed": 2},
        {"suite": "group_checks", "pairs": 5, "seed": 3},
    ]}))
    code, records, _ = run("verify", "--config", str(cfg))
    assert code == 0
    data = strip_header(records)
    assert data[-1]["pass"] is True
    trials = [r for r in data if r.get("record") == "trial"]
    assert len(trials) == 10 and all(t["pass"] for t in trials)


def test_verify_seed_change_same_verdict(tmp_path):
    verdicts = []
    for seed in (2, 9):
        cfg = tmp_path / f"cfg{seed}.json"
        cfg.write_text(json.dumps({"suites": [
            {"suite": "verify_type", "phi": "v2", "orders": [2, 2, 2],
             "trials": 8, "seed": seed}]}))
        code, records, _ = run("verify", "--config", str(cfg))
        verdicts.append((code, strip_header(records)[-1]["pass"]))
    assert verdicts[0] == verdicts[1] == (0, True)


def test_usage_error_exit_2():
    code, _, _ = run("bogus-command")
    assert code == 2


def test_cache_corruption_detected(corpus_file, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, rec1, _ = run("invariants", str(corpus_file), "--cache", str(cache))
    lines = cache.read_text().splitlines()
    # flip a payload value without updating the checksum
    lines[0] = lines[0].replace('"v2": 1', '"v2": 9')
    lines.append("not json at all")
    cache.write_text("\n".join(lines) + "\n")
    code, rec2, _ = run("invariants", str(corpus_file), "--cache", str(cache))
    assert code == 0
    assert strip_header(rec1) == strip_header(rec2)  # bad records were ignored


def test_cache_cut_short_in_its_last_record_loses_only_that_record(tmp_path):
    two = tmp_path / "two.tsv"
    two.write_text("trefoil\t4 6 2\nfig8\t4 6 8 2\n")
    cold = tmp_path / "cold.jsonl"
    code, rec1, _ = run("invariants", str(two), "--cache", str(cold))
    assert code == 0 and len(cold.read_text().splitlines()) == 2
    # The second record is cut off 60 bytes into it.
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(cold.read_bytes()[:cold.read_text().index("\n") + 61])

    def readable():
        out = []
        for line in cut.read_text().splitlines():
            try:
                out.append(json.loads(line))
            except ValueError:
                pass
        return out

    sizes = []
    for _ in range(2):  # the cut record is recomputed once, then hit
        code, rec2, _ = run("invariants", str(two), "--cache", str(cut))
        assert code == 0 and strip_header(rec2) == strip_header(rec1)
        assert readable() == [json.loads(line) for line in cold.read_text().splitlines()]
        sizes.append(cut.stat().st_size)
    assert sizes[0] == sizes[1]


def test_cache_skips_json_lines_that_are_not_records(tmp_path):
    cache = tmp_path / "cache.jsonl"
    trefoil = tmp_path / "trefoil.tsv"
    trefoil.write_text("trefoil\t4 6 2\n")
    code, rec1, _ = run("invariants", str(trefoil), "--cache", str(cache))
    assert code == 0
    valid = cache.read_text().splitlines()
    assert len(valid) == 1
    # Make the valid record the only source of the answer: a recomputation
    # would say v2 = 1, the cached payload says 7.
    rec = json.loads(valid[0])
    rec["payload"]["v2"] = 7
    rec["sha"] = hashlib.sha256(
        json.dumps(rec["payload"], sort_keys=True).encode()).hexdigest()
    cache.write_text("\n".join(["[1, 2]", "5", '"x"', "null",
                                json.dumps(rec, sort_keys=True), "{}"]) + "\n")
    code, rec2, _ = run("invariants", str(trefoil), "--cache", str(cache))
    assert code == 0
    [out] = strip_header(rec2)
    assert out["v2"] == 7
    assert len(cache.read_text().splitlines()) == 6  # a hit appends nothing


def test_invariants_line_without_a_code_field_is_an_error():
    code, records, _ = run("invariants", "-", stdin="foo\nbare\t\n")
    assert code == 0
    foo, bare = strip_header(records)
    assert foo["record"] == "error" and foo["name"] == "foo" and foo["line"] == 1
    assert "no code field" in foo["error"]
    assert bare["record"] == "knot" and bare["key"] == "unknot"  # an empty code field


def _unreduced_record(name, d):
    """The record of the route that computes on the input as given."""
    rep = vassiliev_report(d)
    return json.loads(json.dumps({
        "record": "knot", "name": name, "key": d.canonical_key, "v2": rep["v2"],
        "v3": rep["v3"], "crosschecks": rep["crosschecks"], "conway": rep["conway"].to_pairs(),
        "jones": None if rep["jones"] is None else rep["jones"].to_pairs()}))


def test_invariants_of_the_reduced_diagram_match_the_unreduced_route(tmp_path):
    knots = corpus()
    named = [(f"{name}~{seed}", random_perturb(d, 6, seed))
             for name, d in sorted(corpus(max_crossings=7, include_unknot=True).items())
             for seed in (1, 2)]
    # One knot on either side of the Jones cut-off (20 and 21 crossings, both
    # reducing to the same diagram), and one more diagram above it.
    near = [("5_1@20", random_perturb(knots["5_1"], 40, 2, max_extra=16)),
            ("5_1@21", random_perturb(knots["5_1"], 40, 7, max_extra=16)),
            ("granny@21", random_perturb(knots["granny"], 40, 0, max_extra=16))]
    assert [d.n_crossings for _, d in near] == [20, 21, 21]
    assert len({greedy_reduce(d)[0].canonical_key for _, d in near[:2]}) == 1
    named += near
    assert sum(greedy_reduce(d)[0].n_crossings < d.n_crossings for _, d in named) > len(named) // 2
    p = tmp_path / "perturbed.tsv"
    p.write_text("".join(f"{name}\t{emit_pd(d)}\n" for name, d in named))
    code, records, _ = run("invariants", str(p))
    assert code == 0
    got = strip_header(records)
    assert got == [_unreduced_record(name, d) for name, d in named]
    assert [r["jones"] is None for r in got[-3:]] == [False, True, True]


def test_invariants_never_reuse_a_cached_payload_for_another_line(tmp_path):
    trefoil = parse_dt("4 6 2")
    other = random_perturb(trefoil, 6, 1)
    assert other.canonical_key != trefoil.canonical_key
    assert greedy_reduce(other)[0].canonical_key == trefoil.canonical_key
    cache = tmp_path / "cache.jsonl"
    first = tmp_path / "trefoil.tsv"
    first.write_text("trefoil\t4 6 2\n")
    assert run("invariants", str(first), "--cache", str(cache))[0] == 0
    # A checksum-valid record that says v2 = 7 for the trefoil's own key.
    rec = json.loads(cache.read_text())
    rec["payload"]["v2"] = 7
    rec["sha"] = hashlib.sha256(
        json.dumps(rec["payload"], sort_keys=True).encode()).hexdigest()
    cache.write_text(json.dumps(rec, sort_keys=True) + "\n")
    both = tmp_path / "both.tsv"
    both.write_text(f"trefoil\t4 6 2\nperturbed\t{emit_pd(other)}\n")
    code, records, _ = run("invariants", str(both), "--cache", str(cache))
    assert code == 0
    hit, computed = strip_header(records)
    assert hit["v2"] == 7  # served from the cache
    assert computed["v2"] == 1 and computed["key"] == other.canonical_key


def test_cache_records_of_another_schema_are_recomputed(corpus_file, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, rec1, _ = run("invariants", str(corpus_file), "--cache", str(cache))
    assert code == 0
    stale = []
    for i, line in enumerate(cache.read_text().splitlines()):
        rec = json.loads(line)
        assert rec["schema"] == 1
        # A checksum-valid record with a wrong payload and no (or another) schema.
        rec["payload"]["v2"] = 99
        rec["sha"] = hashlib.sha256(
            json.dumps(rec["payload"], sort_keys=True).encode()).hexdigest()
        if i % 2:
            rec["schema"] = 2
        else:
            del rec["schema"]
        stale.append(json.dumps(rec, sort_keys=True))
    cache.write_text("\n".join(stale) + "\n")
    code, rec2, _ = run("invariants", str(corpus_file), "--cache", str(cache))
    assert code == 0
    assert strip_header(rec1) == strip_header(rec2)
    assert len(cache.read_text().splitlines()) == 2 * len(stale)


def test_invariants_closes_the_cache_file(corpus_file, tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["invariants", str(corpus_file), "--cache", cache]) == 0
        assert cli.main(["invariants", str(tmp_path / "missing.tsv"),
                         "--cache", cache]) == 2
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_type_shortfall_fails(monkeypatch, tmp_path, capsys):
    # Every family construction fails, so no trial reaches a sum.
    monkeypatch.setattr(finitetype, "random_family", lambda *args, **kwargs: None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "verify_type", "phi": "v2", "orders": [2, 2], "trials": 3,
         "seed": 1}]}))
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[-2:] == [
        {"record": "suite-result", "suite": "verify_type", "pass": False},
        {"record": "verdict", "pass": False}]


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_invariants_unusable_cache_path_exit_2(corpus_file, tmp_path, where):
    # A directory fails to open for reading, a file under a missing directory
    # fails to open for appending; both are usage errors, not assertion failures.
    cache = tmp_path if where == "directory" else tmp_path / "nowhere" / "cache.jsonl"
    code, records, err = run("invariants", str(corpus_file), "--cache", str(cache))
    assert code == 2
    assert records == []
    assert err.startswith(f"cannot use cache {cache}: ") and "Traceback" not in err


@pytest.mark.parametrize("diagram, script", [
    ("4 6 2", [["r1-", 99]]),
    ("4 6 2", [["r2+", 1, 0]]),
    ("4 6 2", [["switch", "a"]]),
    # Python would read -1 as the last crossing and JSON true as crossing 1.
    ("4 6 2", [["switch", -1]]),
    ("4 6 2", [["switch", True]]),
    ("X(1,1,2,2)", [["r1-", -1]]),
    # Each is a field away from ["r1+", 1, -1] or ["r2+", 1, 0, 4, 1, true]:
    # JSON true and 1.0 are no edge id, 0 is no chirality, false and 2 are
    # no dart direction and 1 is no over flag.
    ("4 6 2", [["r1+", True, -1]]),
    ("4 6 2", [["r1+", 1.0, -1]]),
    ("4 6 2", [["r1+", 1, 0]]),
    ("4 6 2", [["r2+", 1, False, 4, 1, True]]),
    ("4 6 2", [["r2+", 1, 2, 4, 1, True]]),
    ("4 6 2", [["r2+", 1, 0, 4, 1, 1]]),
    # Each names a site its finder would not list: a triangle flip labelled
    # as R3, a slide on edges 3, 4, 5, which bound no face (the listed
    # triangle is 3, 9, 5), and a push across two faces.
    ("4 6 2", [["r3", 0, 1, 2, 3, 5, 1]]),
    ("X(6,1,7,2) X(5,3,6,2) X(3,9,4,8) X(9,5,10,4) X(7,1,8,12) X(10,12,11,11)",
     [["r3", 1, 2, 3, 3, 4, 5]]),
    ("4 6 2", [["r2+", 1, 0, 3, 0, True]]),
], ids=[f"script{i}" for i in range(15)])
def test_path_replay_entry_that_cannot_apply(tmp_path, diagram, script):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, records, err = run("path-replay", "--diagram", diagram, "--script", str(path))
    assert code == 1
    [rec] = strip_header(records)
    assert rec["record"] == "replay" and rec["ok"] is False and rec["error"]
    assert "Traceback" not in err


def test_searches_suite_covers_its_max_crossings(tmp_path, capsys):
    # The suite searches every corpus diagram up to max_crossings, 8 included.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "searches", "max_crossings": 8, "budget": 5, "require_rate": 0.0}]}))
    cli.main(["verify", "--config", str(cfg)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    cases = {r["case"] for r in records if r.get("record") == "search"}
    assert "delta-unknot:dt8a" in cases
    names = corpus(max_crossings=8, include_unknot=True)
    assert cases == {"trefoil-unknot-B2"} | {f"delta-unknot:{n}" for n in names}
