"""Benchmark of the orbikt command-line program.

Usage (from the root of the repository)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --ladder      # ungated growth curve, see LADDER
    python3 bench/run.py --self-check  # generator against the fixtures

Each workload is a closed loop with one client: one CLI call at a time, each
a fresh ``python -m orbikt.cli`` process, until ``--seconds`` have passed
(the round under way is finished).  Fresh processes are deliberate: a CLI
user pays interpreter start-up and imports on every call, and a cache that
lives across calls in one long-lived process would show a gain that no CLI
user sees.  The inputs are generated from ``--seed`` (see ``inputs.py``); the
program receives only the generated files.

Every answer is checked against label-invariant expected values, and every
call must print byte-for-byte what the first call on the same file printed.
A nonzero exit, a wrong or changed answer or a timeout is a failed call.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds
per call (on chartable, with three inputs, the geometric mean of the
per-input medians), the largest resident set of a call, the share of calls
that succeeded, and ``setup_s``, the median time of a fresh interpreter
importing ``orbikt.cli``, timed once before every call.  Every reported time
is rescaled to the CPU speed of a reference machine by a probe timed next to
it (see ``Speed``); the medians before rescaling are printed and saved too,
but the host this benchmark was defined on swings too much for them to be
gated.  ``--trace 1`` runs each call in process under
``trace_call.py``, alternating an untraced and a traced call per input, and
reports per-layer metrics named ``<module>.<callable>.<stat>`` (``PER_LAYER``)
plus ``trace.overhead_ratio``.  Per-layer times are self times: a span's
duration minus the time covered by its child spans.  Counts are per round
(one call on each input of the workload); times are medians over rounds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Working files go to
``.bench_out/`` at the root.  The program is plain Python: nothing is built.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TRACER = os.path.join(ROOT, "bench", "trace_call.py")
LADDER_FILE = os.path.join(ROOT, "bench", "results", "ladder.json")

CALL_TIMEOUT_S = 30
# Seconds that ``probe`` takes on an uncontended core of the machine the
# benchmark was defined on (2.1 GHz Xeon VM, 2 vCPUs, Python 3.11.7): about
# the 5th percentile of 600 probes there.
REFERENCE_PROBE_S = 0.017
PROBE_STEPS = 150000

# A case is one input file and the CLI arguments that run on it.
Case = namedtuple("Case", "label argv check")

# -- expected answers ---------------------------------------------------------
# Every value below is invariant under relabeling vertices and group elements.

KTHEORY_Z4_GRID6 = {
    "f_vector": [72, 216, 144],
    "k0": {"rank": 9, "torsion": []},
    "k1": {"rank": 0, "torsion": []},
    "quotient_k0": {"rank": 2, "torsion": []},
    "quotient_k1": {"rank": 0, "torsion": []},
    "totals": {"even": 9, "odd": 0},
    "class_even_ranks": [2, 2, 2, 3],
    "boundary_status": "provably-zero",
    "singular_stabilizer_orders": [2, 4, 4],
    "singular_extra_ranks": [1, 3, 3],
}

PRIM_D4_GRID24 = {"f_vector": [1152, 3456, 2304], "nodes": 1017,
                  "relation": 3088, "ix": 913}

# name -> (builtin spec, order, classes, {degree: count}, conductor)
GROUP_TABLES = {
    "d8xc6": ("product:dihedral:8:cyclic:6", 96, 42, {1: 24, 2: 18}, 24),
    "c24": ("cyclic:24", 24, 24, {1: 24}, 24),
    "d4xd4": ("product:dihedral:4:dihedral:4", 64, 25,
              {1: 16, 2: 8, 4: 1}, 4),
}


def _mismatches(pairs):
    return ["%s: got %r, want %r" % (what, got, want)
            for what, got, want in pairs if got != want]


def check_ktheory(doc, want=KTHEORY_Z4_GRID6):
    p = doc["payload"]
    orbits = p["singular_orbits"]
    return _mismatches([
        ("f_vector", doc["meta"]["f_vector"], want["f_vector"]),
        ("k0", p["k0"], want["k0"]),
        ("k1", p["k1"], want["k1"]),
        ("quotient_k0", p["quotient_k0"], want["quotient_k0"]),
        ("quotient_k1", p["quotient_k1"], want["quotient_k1"]),
        ("totals", p["totals"], want["totals"]),
        ("per-class even ranks", sorted(c["even"] for c in p["per_class"]),
         want["class_even_ranks"]),
        ("per-class odd ranks", [c["odd"] for c in p["per_class"]],
         [0] * len(want["class_even_ranks"])),
        ("boundary_status", p["boundary_status"], want["boundary_status"]),
        ("singular stabilizer orders",
         sorted(len(o["stabilizer"]) for o in orbits),
         want["singular_stabilizer_orders"]),
        ("singular extra ranks", sorted(o["extra_rank"] for o in orbits),
         want["singular_extra_ranks"]),
        ("flags", doc["flags"], []),
    ])


def check_prim(doc, want=PRIM_D4_GRID24):
    p = doc["payload"]
    trivial = [n["index"] for n in p["nodes"] if n["irrep"] == 0]
    return _mismatches([
        ("f_vector", doc["meta"]["f_vector"], want["f_vector"]),
        ("aggregated", p["aggregated"], False),
        ("nodes", len(p["nodes"]), want["nodes"]),
        ("relation pairs", len(p["relation"]), want["relation"]),
        ("ix nodes", len(p["ix"]), want["ix"]),
        ("ix = trivial-irrep nodes", p["ix"], trivial),
        ("flags", doc["flags"], []),
    ])


def group_checker(name):
    _spec, order, classes, degrees, conductor = GROUP_TABLES[name]

    def check(doc):
        p = doc["payload"]
        got = [irrep["degree"] for irrep in p["irreps"]]
        return _mismatches([
            ("order", p["order"], order),
            ("class count", len(p["classes"]), classes),
            ("class sizes sum", sum(c["size"] for c in p["classes"]), order),
            ("sorted degrees", sorted(got),
             sorted(d for d, n in degrees.items() for _ in range(n))),
            ("sum of squared degrees", sum(d * d for d in got), order),
            ("conductor", p["conductor"], conductor),
        ])
    return check


# -- workloads ----------------------------------------------------------------
# ktheory-z4-torus: the full localization pipeline (fixed sets, centralizer
#   quotients with barycentric subdivision, two-oracle integral homology);
#   almost all time is in complexes and homology.
# chartable: character tables by Dixon's method on three groups that differ in
#   conductor and class count; groups, characters and cyclotomic only, so it
#   bypasses every complexes and homology change.
# prim-d4-torus: the prim poset on a large bundle: many small restriction
#   multiplicities, action validation, parsing and a 273 KB JSON document; no
#   quotient and no homology.

WORKLOADS = ("ktheory-z4-torus", "chartable", "prim-d4-torus")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def make_cases(workload, seed, directory):
    """Write the seeded input files of the workload; return its cases."""
    import inputs

    os.makedirs(directory, exist_ok=True)
    if workload == "ktheory-z4-torus":
        path = _write(os.path.join(directory, "z4-torus-6.txt"),
                      inputs.torus_bundle_text("z4", 6, seed))
        return [Case("z4-torus-6", ["ktheory", "--complex", path,
                                    "--format", "json"], check_ktheory)]
    if workload == "prim-d4-torus":
        path = _write(os.path.join(directory, "d4-torus-24.txt"),
                      inputs.torus_bundle_text("d4", 24, seed))
        return [Case("d4-torus-24", ["prim", "--complex", path,
                                     "--format", "json"], check_prim)]
    if workload == "chartable":
        from orbikt.formats import parse_builtin_spec

        cases = []
        for name, (spec, *_rest) in GROUP_TABLES.items():
            path = _write(os.path.join(directory, name + ".txt"),
                          inputs.group_table_text(parse_builtin_spec(spec),
                                                  seed))
            cases.append(Case(name, ["group", "--group", path,
                                     "--format", "json"],
                              group_checker(name)))
        return cases
    raise ValueError("unknown workload %r" % (workload,))


# -- child processes ----------------------------------------------------------

Call = namedtuple("Call", "label wall_s cpu_s rss_mib scale error")


def probe():
    """Seconds this process takes for a fixed pure-Python computation."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_STEPS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


class Speed:
    """Rescales measured times to the speed of the reference machine.

    On a shared host the same call can take 1.0 to 1.7 times as long from one
    minute to the next, and whole runs land in slow spells.  So ``probe`` runs
    before and after every measured step (one probe serves the steps on both
    sides of it), and the step's times are multiplied by REFERENCE_PROBE_S
    over the mean of those two probes.
    """

    def __init__(self):
        self.last = probe()

    def scale_after_step(self):
        before, self.last = self.last, probe()
        return 2 * REFERENCE_PROBE_S / (before + self.last)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


ENV = _child_env()


def spawn(args, stdout_path, timeout=CALL_TIMEOUT_S):
    """Run ``python args...`` with stdout to a file and wait for it.

    Returns (wall seconds, user+sys seconds, peak RSS in MiB, error or None).
    The child is killed after ``timeout`` seconds.
    """
    argv = [sys.executable] + list(args)
    timed_out = []
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, ENV, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])

        def on_alarm(_signum, _frame):
            timed_out.append(True)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _pid, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    error = None
    if timed_out:
        error = "timed out after %g s" % timeout
    elif os.waitstatus_to_exitcode(status) != 0:
        with open(stdout_path + ".err", encoding="utf-8",
                  errors="replace") as handle:
            tail = handle.read().strip().splitlines()[-1:]
        error = "exit %d %s" % (os.waitstatus_to_exitcode(status),
                                " ".join(tail))
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            error)


def call_and_check(case, args, stdout_path, reference, speed):
    """Spawn one call, check its answer; ``reference`` maps a case label to
    the stdout of its first call, which every later call must repeat."""
    wall, cpu, rss, error = spawn(args, stdout_path)
    scale = speed.scale_after_step()
    with open(stdout_path, "rb") as handle:
        stdout = handle.read()
    if error is None:
        try:
            problems = case.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            problems = ["unreadable output: %r" % (exc,)]
        if problems:
            error = "wrong answer: " + "; ".join(problems)
    if error is None:
        first = reference.setdefault(case.label, stdout)
        if stdout != first:
            error = "output differs from the first call on the same file"
    if error is not None:
        print("bench: %s failed: %s" % (case.label, error), file=sys.stderr)
    return Call(case.label, wall, cpu, rss, scale, error)


def time_import(speed):
    """(wall seconds, scale) of a fresh interpreter importing orbikt.cli."""
    wall, _cpu, _rss, error = spawn(["-c", "import orbikt.cli"],
                                    os.path.join(OUT, "setup.out"))
    if error is not None:
        raise SystemExit("bench: importing orbikt.cli failed: " + error)
    return wall, speed.scale_after_step()


# -- timed loops --------------------------------------------------------------


def run_rounds(cases, seconds, one_round):
    """Call ``one_round`` until ``seconds`` have passed; at least once."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        rounds.append(one_round(len(rounds)))
    return rounds


def per_input_p50(calls, value):
    """Median of ``value`` over the calls on each input, geometric mean over
    the inputs: chartable's three tables differ twofold in cost, and the
    median of the mixed calls would rest on the few calls of one table."""
    by_input = {}
    for call in calls:
        by_input.setdefault(call.label, []).append(value(call))
    return statistics.geometric_mean(
        [statistics.median(values) for values in by_input.values()])


def end_to_end(cases, seconds):
    """Calls in a closed loop.  One import is timed before each call, so
    that the ``setup_s`` samples spread over the whole run like the calls
    do; the first import, which fills the bytecode cache, is not counted."""
    reference = {}
    stdout_path = os.path.join(OUT, "call.out")
    speed = Speed()
    imports = []

    def one_round(_index):
        calls = []
        for case in cases:
            imports.append(time_import(speed))
            calls.append(call_and_check(
                case, ["-m", "orbikt.cli"] + case.argv, stdout_path,
                reference, speed))
        return calls

    time_import(speed)
    calls = [c for rnd in run_rounds(cases, seconds, one_round) for c in rnd]
    ok = [c for c in calls if c.error is None] or calls
    failed = sum(1 for c in calls if c.error is not None)
    median = statistics.median
    metrics = {
        "solve_s_p50": (per_input_p50(ok, lambda c: c.wall_s * c.scale), "s"),
        "cpu_s_p50": (per_input_p50(ok, lambda c: c.cpu_s * c.scale), "s"),
        "peak_rss_mib": (max(c.rss_mib for c in calls), "MiB"),
        "ok_ratio": ((len(calls) - failed) / len(calls), "ratio"),
        "setup_s": (median(wall * scale for wall, scale in imports), "s"),
    }
    unscaled = {
        "solve_s_p50": per_input_p50(ok, lambda c: c.wall_s),
        "cpu_s_p50": per_input_p50(ok, lambda c: c.cpu_s),
        "setup_s": median(wall for wall, _scale in imports),
        "scale_p50": median(c.scale for c in calls),
    }
    return calls, metrics, unscaled


# Per-layer metrics: traced callable -> the stats reported for it.
PER_LAYER = {
    "cli.main": ("total_s",),
    "cli.resolve_inputs": ("self_s",),
    "cli.report_json": ("self_s",),
    "formats.parse_group_text": ("self_s",),
    "formats.parse_complex_text": ("self_s",),
    "formats.parse_action_text": ("self_s",),
    "groups.FiniteGroup.__init__": ("calls", "self_s"),
    "groups.conjugacy_data": ("calls", "self_s"),
    "characters.character_table": ("calls", "self_s"),
    "characters.subgroup_table": ("calls",),
    "characters.multiplicity": ("calls", "self_s"),
    "characters.conjugate_irrep": ("calls",),
    "cyclotomic.Cyclotomic.__mul__": ("calls",),
    "cyclotomic.Cyclotomic.__add__": ("calls",),
    "complexes.SimplicialComplex.__init__": ("calls", "self_s"),
    "complexes.SimplicialComplex.maximal_simplices": ("calls", "self_s"),
    "complexes.GSimplicialComplex.__init__": ("self_s",),
    "complexes.GSimplicialComplex.admissibility_witness": ("self_s",),
    "complexes.barycentric_subdivide": ("calls", "self_s"),
    "complexes.orbits_and_stabilizers": ("calls", "self_s"),
    "complexes.centralizer_fixed_action": ("calls",),
    "complexes.quotient_complex": ("calls", "unique_ratio"),
    "homology.ChainComplex.__init__": ("self_s",),
    "homology.homology_integral": ("calls", "unique_ratio"),
    "homology.smith_invariant_factors": ("calls", "self_s", "entries", "nnz"),
    "homology.fraction_free_rank": ("self_s",),
    "crossed.specialization": ("self_s",),
    "crossed.PrimPoset.__init__": ("self_s",),
    "crossed.ix_nodes": ("self_s",),
    "ktheory.bc_decomposition": ("calls", "self_s"),
    "ktheory.isolated_k_theory": ("self_s",),
    "ktheory.bc_cross_check": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
              "unique_ratio": "ratio", "entries": "count", "nnz": "count"}
COUNT_STATS = ("calls", "entries", "nnz", "unique_ratio")


def read_trace(path, scale):
    """Per-callable stats of one traced call, and its in-process seconds,
    with times multiplied by ``scale``."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    spans = [line for line in lines if "id" in line]
    covered = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["end"] - span["start"])
    stats = {}
    for span in spans:
        s = stats.setdefault(span["name"], {
            "calls": 0, "self_s": 0.0, "total_s": 0.0, "keys": set(),
            "entries": 0, "nnz": 0})
        duration = (span["end"] - span["start"]) * scale
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - covered.get(span["id"], 0.0) * scale
        if "key" in span:
            s["keys"].add(span["key"])
        s["entries"] += span.get("entries", 0)
        s["nnz"] += span.get("nnz", 0)
    for line in lines:
        for name, n in line.get("counts", {}).items():
            stats.setdefault(name, {})["calls"] = n
    main_s = next(line["main_s"] for line in lines if "main_s" in line)
    main_s *= scale
    return stats, main_s


def round_layers(traces):
    """Per-layer values of one round, summed over its traced calls."""
    values = {}
    for name, stats in PER_LAYER.items():
        found = [t[name] for t in traces if name in t]
        for stat in stats:
            if stat == "unique_ratio":
                calls = sum(s["calls"] for s in found)
                keys = set().union(*(s["keys"] for s in found))
                value = len(keys) / calls if calls else 0.0
            else:
                value = sum(s[stat] for s in found)
            values[name + "." + stat] = value
    return values


def per_layer(cases, seconds):
    from trace_call import COUNTED, TIMED

    untraced = set(PER_LAYER) - set(TIMED) - set(COUNTED)
    if untraced:
        raise SystemExit("bench: not traced: %s" % sorted(untraced))
    reference = {}
    speed = Speed()

    def one_round(index):
        calls, traces, plain_s, traced_s = [], [], 0.0, 0.0
        for case in cases:
            for mode in (["--plain"], []):
                spans = os.path.join(OUT, "spans", case.label + ".jsonl")
                call_id = "r%d-%s%s" % (index, case.label,
                                        "-plain" if mode else "")
                args = [TRACER, spans, call_id] + mode + ["--"] + case.argv
                call = call_and_check(case, args,
                                      os.path.join(OUT, "call.out"),
                                      reference, speed)
                calls.append(call)
                if call.error is not None:
                    continue
                stats, main_s = read_trace(spans, call.scale)
                if mode:
                    plain_s += main_s
                else:
                    traced_s += main_s
                    traces.append(stats)
        layers = round_layers(traces)
        layers["trace.overhead_ratio"] = (traced_s / plain_s - 1.0
                                          if plain_s else 0.0)
        return calls, layers

    rounds = run_rounds(cases, seconds, one_round)
    calls = [c for rnd_calls, _ in rounds for c in rnd_calls]
    layer_rounds = [layers for _, layers in rounds]
    metrics = {}
    for name in layer_rounds[0]:
        stat = name.rsplit(".", 1)[1]
        values = [layers[name] for layers in layer_rounds]
        if stat in COUNT_STATS:
            if len(set(values)) > 1:
                print("bench: %s differs across rounds: %r" % (name, values),
                      file=sys.stderr)
            value = values[0]
        else:
            value = statistics.median(values)
        unit = ("ratio" if name == "trace.overhead_ratio"
                else STAT_UNITS[stat])
        metrics[name] = (value, unit)
    return calls, metrics, {}


# -- ladder and self-check ----------------------------------------------------
# The ladder is one traced pass over growing inputs, saved to LADDER_FILE as
# the growth curve of each layer's self time.  It is not part of the gated
# runs.  builtin:cyclic:60 is left out: one call takes about two minutes.

LADDER = ([("ktheory", "z4", grid) for grid in (4, 6, 8)]
          + [("prim", "d4", grid) for grid in (12, 24)]
          + [("group", "cyclic", n) for n in (12, 20, 24, 30)])


def ladder_cases(seed, directory):
    import inputs
    from orbikt.groups import cyclic_group

    os.makedirs(directory, exist_ok=True)
    known = {("ktheory", 6): check_ktheory, ("prim", 24): check_prim,
             ("group", 24): group_checker("c24")}
    rows = []
    for command, kind, size in LADDER:
        label = "%s-%s-%d" % (command, kind, size)
        path = os.path.join(directory, label + ".txt")
        if command == "group":
            _write(path, inputs.group_table_text(cyclic_group(size), seed))
            argv, dims = ["group", "--group", path], {"order": size}
        else:
            _write(path, inputs.torus_bundle_text(kind, size, seed))
            argv, dims = [command, "--complex", path], {"grid": size}
        check = known.get((command, size), lambda doc: [])
        rows.append((dims, Case(label, argv + ["--format", "json"], check)))
    return rows


def ladder(seed):
    speed = Speed()
    rows = []
    failed = 0
    for dims, case in ladder_cases(seed, os.path.join(OUT, "ladder")):
        spans = os.path.join(OUT, "spans", case.label + ".jsonl")
        row = {"input": case.label, "size": dims}
        for mode, key in ((["--plain"], "main_s"), ([], "traced_main_s")):
            call = call_and_check(case, [TRACER, spans, case.label] + mode
                                  + ["--"] + case.argv,
                                  os.path.join(OUT, "call.out"), {}, speed)
            if call.error is not None:
                row["error"] = call.error
                failed += 1
                break
            stats, row[key] = read_trace(spans, call.scale)
        else:
            row["self_s"] = {name: s["self_s"] for name, s in stats.items()
                             if "self_s" in s}
            row["calls"] = {name: s["calls"] for name, s in stats.items()}
        rows.append(row)
        print("%-22s %s" % (case.label, row.get("error") or
                            "%.3f s in process" % row["main_s"]))
    result = {"seed": seed, "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "reference_probe_s": REFERENCE_PROBE_S, "rows": rows}
    os.makedirs(os.path.dirname(LADDER_FILE), exist_ok=True)
    _write(LADDER_FILE, json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % os.path.relpath(LADDER_FILE, ROOT))
    return 1 if failed else 0


def _by_index(payload, names):
    """The payload with element names under 'rep' and 'stabilizer' replaced
    by element indices."""
    index = {name: str(i) for i, name in enumerate(names)}
    if isinstance(payload, list):
        return [_by_index(item, names) for item in payload]
    if not isinstance(payload, dict):
        return payload
    out = {}
    for key, value in payload.items():
        if key == "rep" and isinstance(value, str):
            value = index[value]
        elif key == "stabilizer":
            value = [index[v] for v in value]
        out[key] = _by_index(value, names)
    return out


def self_check():
    """Seed-0 generated inputs against the built-in fixtures and group specs:
    payloads must agree once element names are replaced by indices.  Then,
    for the record, ``prim --aggregate`` on relabeled grid-24 D4 tori."""
    import inputs
    from orbikt.fixtures import fixture
    from orbikt.formats import parse_builtin_spec

    directory = os.path.join(OUT, "self-check")
    os.makedirs(directory, exist_ok=True)
    out = os.path.join(directory, "out.json")

    def payload(argv):
        _wall, _cpu, _rss, error = spawn(["-m", "orbikt.cli"] + argv, out)
        if error is not None:
            return error
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)["payload"]

    pairs = []
    for command, kind, name in (("ktheory", "z4", "z4-torus"),
                                ("prim", "d4", "d4-torus")):
        extra = ["--aggregate"] if command == "prim" else []
        path = _write(os.path.join(directory, name + ".txt"),
                      inputs.torus_bundle_text(kind, 4, 0))
        pairs.append(("%s %s" % (command, name),
                      [command, "--complex", path] + extra,
                      [command, "--fixture", name] + extra,
                      fixture(name).group.element_names))
    for name, (spec, *_rest) in GROUP_TABLES.items():
        group = parse_builtin_spec(spec)
        path = _write(os.path.join(directory, name + ".txt"),
                      inputs.group_table_text(group, 0))
        pairs.append(("group %s" % name, ["group", "--group", path],
                      ["group", "--group", "builtin:" + spec],
                      group.element_names))
    bad = 0
    for label, generated, reference, names in pairs:
        got = payload(generated + ["--format", "json"])
        want = payload(reference + ["--format", "json"])
        same = (isinstance(want, dict) and isinstance(got, dict)
                and got == _by_index(want, names))
        bad += not same
        print("%-24s %s" % (label, "same payload" if same else "DIFFERS"))
    for seed in range(6):
        path = _write(os.path.join(directory, "d4-torus-24.txt"),
                      inputs.torus_bundle_text("d4", 24, seed))
        got = payload(["prim", "--aggregate", "--complex", path,
                       "--format", "json"])
        print("prim --aggregate d4-torus-24 seed %d: %s"
              % (seed, "ok" if isinstance(got, dict) else got))
    return 1 if bad else 0


# -- entry point --------------------------------------------------------------


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark of the orbikt CLI (see the module docstring).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--ladder", action="store_true",
                      help="write the ungated growth curve")
    mode.add_argument("--self-check", action="store_true",
                      help="compare seed-0 inputs with the fixtures")
    args = parser.parse_args(argv)
    if args.workload is None and not (args.ladder or args.self_check):
        parser.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbikt", "cli.py")):
        print("bench: no orbikt sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    if args.ladder:
        return ladder(args.seed)
    if args.self_check:
        return self_check()

    cases = make_cases(args.workload, args.seed, os.path.join(OUT, "inputs"))
    measure = per_layer if args.trace else end_to_end
    calls, metrics, unscaled = measure(cases, args.seconds)
    declared = declared_metrics(args.trace)
    measured = {name: unit for name, (_value, unit) in metrics.items()}
    if measured != declared:
        print("bench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(measured.items()) ^ set(declared.items())),
              file=sys.stderr)
        return 2

    failed = sum(1 for c in calls if c.error is not None)
    print("%s seed %d: %d calls, %d failed (fail_ratio %.4f)"
          % (args.workload, args.seed, len(calls), failed,
             failed / len(calls)))
    for name, (value, unit) in metrics.items():
        print("  %-52s %14.6g %s" % (name, value, unit))
    for name, value in unscaled.items():
        print("  %-52s %14.6g (not rescaled)" % (name, value))
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  unscaled=unscaled, calls=[c._asdict() for c in calls])
    _write(os.path.join(OUT, "result-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace)),
           json.dumps(record, indent=1) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
