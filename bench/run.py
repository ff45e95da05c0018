"""pregtrans benchmark: one workload, one process, one client in a closed loop.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run sets up (imports pregtrans and loads every data
file the workload uses) several times and keeps the median, then drives the
workload's passes until ``--seconds`` of item time have been measured,
times each input key by its fastest repetition, checks every output
against the references in ``workloads.py``, and prints
every metric by name and unit.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
second, traced phase follows the untraced one and the metrics are the
per-layer ones.  The exit code is 1 if any item failed and 2 if the run
could not start.
"""

from __future__ import annotations

import argparse
import os
import sys


def pin_hash_seed():
    """Run under PYTHONHASHSEED = --seed, re-executing this interpreter if needed.

    With a random hash seed, the same inputs ran slower in some processes
    than in others (NOTES.md); a hash seed fixed by --seed makes
    str hashing, and with it set order and dict layout, the same in every
    run of a seed.  exec replaces this process, so no second one starts.
    """
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seed")
    seed = parser.parse_known_args()[0].seed
    try:
        wanted = str(int(seed) % 2**32)
    except (TypeError, ValueError):
        return  # main() reports the bad argument
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    pin_hash_seed()

# one BLAS thread, set before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CHUNK_S = 1.0  # item time between two interleaved set-ups
TOLERANCE = 1e-9


class StartError(Exception):
    pass


def fresh_import():
    """Import pregtrans from this checkout's src, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "pregtrans" or m.startswith("pregtrans.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import pregtrans
        import pregtrans.cli
        import pregtrans.data
    except ImportError as exc:
        raise StartError(f"cannot import pregtrans from {SRC}: {exc}") from exc
    if Path(pregtrans.__file__).resolve().parent != SRC / "pregtrans":
        raise StartError(f"imported pregtrans from {pregtrans.__file__}, not from {SRC}")
    return pregtrans


def set_up(workload, times):
    """Import pregtrans afresh and load the workload's data; append the time."""
    gc.collect()
    t0 = perf_counter()
    P = fresh_import()
    ctx = workload.load(P)
    times.append(perf_counter() - t0)
    return P, ctx


class LineClock(io.StringIO):
    """Captured standard output that stamps the time each line ends.

    One instance serves every CLI call of a run: click caches the stream it
    writes to per ``sys.stdout`` object and keeps each one alive, so a new
    stream per call would hold every batch's output until the process ends.
    """

    def __init__(self):
        super().__init__()
        self.stamps = []

    def reset(self):
        self.seek(0)
        self.truncate(0)
        self.stamps.clear()

    def write(self, s):
        n = super().write(s)
        if "\n" in s:
            t = perf_counter()
            self.stamps.extend([t] * s.count("\n"))
        return n


class Phase:
    """Latencies, failures and counts of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.keys: list[str] = []  # the workload's key of each latency
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.tokens = 0
        self.errors: list[str] = []
        self.rss_first_mb = 0.0  # ru_maxrss after the first pass, before any check

    def record(self, latencies, keys):
        self.latencies.extend(latencies)
        self.keys.extend(keys[:len(latencies)])

    def fail(self, n, why):
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(why)


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


STDOUT = LineClock()


def run_cli(P, batch, phase, tracer, item_cap_s):
    """Run one CLI batch; return a function that checks its output, or None."""
    out = STDOUT
    out.reset()
    saved = sys.stdin, sys.stdout
    sys.stdin = io.StringIO("".join(line + "\n" for line in batch.lines))
    sys.stdout = out
    code, error = None, None
    t0 = perf_counter()
    try:
        if tracer is None:
            P.cli.main(batch.args, prog_name="pregtrans")
        else:
            tracer.call("bench.batch", P.cli.main, (batch.args,), {"prog_name": "pregtrans"})
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the program's failure is a result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = perf_counter()
        sys.stdin, sys.stdout = saved
    n = len(batch.lines)
    phase.attempted += n
    phase.busy_s += t1 - t0
    phase.tokens += batch.tokens
    if error is not None:
        phase.fail(n, f"{batch.args[:3]}: raised {error}")
        return None
    stamps = out.stamps
    times = [b - a for a, b in zip([t0] + stamps, stamps[:n])]
    phase.record(times, batch.keys)
    text = out.getvalue()
    return lambda: check_batch(batch, code, text, times, phase, item_cap_s)


def check_batch(batch, code, text, times, phase, item_cap_s):
    n = len(batch.lines)
    if code != batch.exit_code:
        phase.fail(n, f"{batch.args[:3]}: exit code {code}, expected {batch.exit_code}")
        return
    lines = text.splitlines()
    if len(lines) != n or len(times) != n:
        phase.fail(n, f"{batch.args[:3]}: {len(lines)} output lines for {n} sentences")
        return
    for i, (line, expect) in enumerate(zip(lines, batch.expect)):
        why = check_line(line, expect, batch.kind)
        if why is None and times[i] > item_cap_s:
            why = f"took longer than the {item_cap_s} s cap"
        if why is not None:
            phase.fail(1, f"{batch.lines[i]!r}: {why}")


_VERDICTS: dict = {}


def check_line(line, expect, kind):
    """Why an output line does not meet its expectation, or None.

    Passes cycle over a fixed pool, so most lines repeat; a line identical to
    one already checked against the same expectation gets the same verdict.
    """
    if expect is None:
        return None if line.startswith("not translatable: ") else f"got {line[:200]!r}"
    key = (id(expect), hashlib.sha256(line.encode("utf-8")).digest())
    if key not in _VERDICTS:
        _VERDICTS[key] = _check_line(line, expect, kind)
    return _VERDICTS[key]


def _check_line(line, expect, kind):
    if kind == "enumerate":
        return check_enumeration(line, expect)
    try:
        got = json.loads(line)
    except ValueError:
        return f"not JSON: {line[:200]!r}"
    return None if got == expect else f"got {line[:300]}"


def check_enumeration(line, expect):
    """Check each witness as the decoder builds it, then drop it.

    The check keeps a 16-byte digest per witness rather than the witnesses,
    so it needs far less memory than the program's enumeration.
    """
    parts = workloads.simple_types(expect["type"])
    goal = [("n", 0, False)]
    digests, problems = set(), []

    def witness(obj):
        if "links" not in obj:
            return obj
        links = sorted(tuple(link) for link in obj["links"])
        if obj.get("type") != expect["type"]:
            problems.append(f"witness type {obj.get('type')!r}")
        else:
            why = workloads.check_witness(parts, links, obj.get("residue", ()), goal)
            if why is not None:
                problems.append(why)
        digests.add(hashlib.blake2b(repr(links).encode(), digest_size=16).digest())
        return None

    try:
        got = json.loads(line, object_hook=witness)
    except ValueError:
        return f"not JSON: {line[:200]!r}"
    count = len(got.get("witnesses", []))
    if not got.get("reducible") or count != expect["count"]:
        return f"{count} witnesses, expected Catalan({expect['k']}) = {expect['count']}"
    if problems:
        return problems[0]
    if len(digests) != count:
        return "repeated witnesses"
    return None


def run_square(P, ctx, square, phase, tracer, rng, item_cap_s):
    """Run one naturality square; return a function that checks it, or None."""
    item = ctx[(square.fixture, square.mode)]
    phase.attempted += 1
    phase.tokens += square.tokens
    t0 = perf_counter()
    try:
        if tracer is None:
            report, src_w, tgt_w, image = naturality_square(P, item, rng)
        else:
            report, src_w, tgt_w, image = tracer.call(
                "bench.item", naturality_square, (P, item, rng), {})
    except Exception as exc:  # the program's failure is a result, not a crash
        phase.busy_s += perf_counter() - t0
        phase.fail(1, f"{square.fixture}/{square.mode}: raised {type(exc).__name__}: {exc}")
        return None
    elapsed = perf_counter() - t0
    phase.busy_s += elapsed
    phase.record([elapsed], [square.key])
    return lambda: check_square(square, item, report, src_w, tgt_w, image, elapsed, phase,
                                item_cap_s)


def check_square(square, item, report, src_w, tgt_w, image, elapsed, phase, item_cap_s):
    why = None
    if src_w is None or tgt_w is None:
        why = "a witness is missing"
    else:
        # .render(), not render_type, so the check adds no spans
        why = (workloads.check_witness(
                   workloads.simple_types(item["flat"].render()), src_w.links,
                   src_w.residue, workloads.simple_types(item["goal"].render()))
               or workloads.check_witness(
                   workloads.simple_types(image.render()), tgt_w.links,
                   tgt_w.residue, workloads.simple_types(item["goal_image"].render())))
    if why is None and not (report.ok and report.tolerance == TOLERANCE):
        why = f"residual {report.max_residual:.3e} over tolerance {TOLERANCE}"
    if why is None and elapsed > item_cap_s:
        why = f"took longer than the {item_cap_s} s cap"
    if why is not None:
        phase.fail(1, f"{square.fixture}/{square.mode}: {why}")


def naturality_square(P, item, rng):
    """Source reduce, functor image, target reduce, check under a fresh alpha."""
    src_w = P.reduction.reduce(item["flat"], item["goal"], item["source"])
    image = P.functors.apply_functor(item["functor"], item["flat"])
    if isinstance(image, P.BracedType):
        image = image.flatten()
    tgt_w = P.reduction.reduce(image, item["goal_image"], item["target"])
    if src_w is None or tgt_w is None:
        return None, src_w, tgt_w, image
    # a fresh invertible component per atom: I + 0.2 U(-1, 1)
    comps = {atom: np.eye(d) + 0.2 * rng.uniform(-1.0, 1.0, (d, d))
             for atom, d in item["dims"].items()}
    alpha = P.semantics.AlphaSpec.make(comps)
    report = P.semantics.check_naturality(
        alpha, src_w, item["tensors"], item["functor"], tgt_w, TOLERANCE)
    return report, src_w, tgt_w, image


def timed_phase(workload, P, ctx, seconds, tracer=None, setups=None):
    """Whole passes of the pool, cycled, until ``seconds`` of item time.

    A pass's outputs are checked after its last call returns, so ru_maxrss
    read after the first pass holds nothing of the checks.  When ``setups``
    is a list, one set-up is timed after each CHUNK_S seconds of item time
    and appended to it, so the set-ups are spread over the run.
    """
    phase = Phase()
    rng = None
    if not isinstance(workload, workloads.CliWorkload):
        rng = np.random.default_rng([workload.seed, 1 if tracer else 0])
        if tracer is not None:
            tracer.target_tables.update(id(item["target"]) for item in ctx.values())
    cap = workload.item_cap_s
    chunk_start = 0.0
    while phase.busy_s < seconds:
        for units in workload.pool:
            if rng is None:
                checks = [run_cli(P, unit, phase, tracer, cap) for unit in units]
            else:
                checks = [run_square(P, ctx, unit, phase, tracer, rng, cap) for unit in units]
            if not phase.rss_first_mb:
                phase.rss_first_mb = max_rss_mb()
            for check in checks:
                if check is not None:
                    check()
            done = phase.busy_s >= seconds
            if setups is not None and (done or phase.busy_s - chunk_start >= CHUNK_S):
                chunk_start = phase.busy_s
                set_up(workload, setups)
            if done:
                break
    return phase


def key_times(phase):
    """(fastest item time, samples) of each key over its repetitions, ascending.

    Every key occurs equally often in the pool, so the metrics weigh each
    key once.  On a shared machine, other tenants slow this process down,
    by up to 1.6x, in spells that last from under a second to minutes.  The
    fastest repetition of a key is the one such a spell disturbed least, so
    it varies far less from run to run than a median does (NOTES.md).  The
    same choice drops a slowdown the program itself causes in only some
    repetitions (a collector pause, say); the unfiltered figures printed
    next to the metrics still show it.
    """
    groups = defaultdict(list)
    for key, latency in zip(phase.keys, phase.latencies):
        groups[key].append(latency)
    return sorted((min(ts), len(ts)) for ts in groups.values())


def throughput(phase):
    fastest = key_times(phase)
    return len(fastest) / sum(t for t, _ in fastest)


def rank(n, percentile):
    """Nearest-rank index (1-based) of ``percentile`` among ``n`` values."""
    return max(1, math.ceil(percentile / 100 * n))


def thread_count():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def end_to_end(workload, phase, setups):
    fastest = key_times(phase)
    times = [t for t, _ in fastest]
    percentile = workload.tail_percentile
    r = rank(len(times), percentile)
    beyond = sum(n for _, n in fastest[r:])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": (times[r - 1] * 1e3, "ms"),
        "peak_rss_mb": (phase.rss_first_mb, "MB"),
    }
    raw = sorted(phase.latencies)
    print(f"timing over {len(times)} keys, each the fastest of {min(n for _, n in fastest)} "
          f"to {max(n for _, n in fastest)} samples; latency_tail_ms is p{percentile:g} over "
          f"the keys, with {len(times) - r} keys ({beyond} samples) beyond it"
          + ("" if beyond >= 10 else " (fewer than ten samples: the tail is thin)")
          + f"; setup_s is the median of {len(setups)} set-ups")
    print(f"unfiltered, over all {len(raw)} samples: items_per_s "
          f"{len(raw) / phase.busy_s:.6g}, p50 {statistics.median(raw) * 1e3:.6g} ms, "
          f"p{percentile:g} {raw[rank(len(raw), percentile) - 1] * 1e3:.6g} ms")
    print(f"ru_maxrss: {phase.rss_first_mb:.6g} MB after the first pass, before any check "
          f"(peak_rss_mb); {max_rss_mb():.6g} MB at the end, checks included")
    return metrics


def per_layer(phase, setup_totals, totals, overhead):
    items = max(phase.attempted, 1)
    calls, self_s, counts = totals["calls"], totals["self_s"], totals["counts"]
    metrics = {}
    for layer in ("core.parse_type", "core.render_type", "lexicon.types_of",
                  "reduction.source", "reduction.target", "functors.translate",
                  "functors.apply", "functors.realize", "semantics.interpret",
                  "semantics.apply_alpha"):
        metrics[f"{layer}.calls"] = (calls[layer] / items, "count")
        metrics[f"{layer}.self_s"] = (self_s[layer] / items, "s")
    for layer in ("cli.parse", "cli.translate", "semantics.check_naturality",
                  "semantics.alpha_make"):
        metrics[f"{layer}.self_s"] = (self_s[layer] / items, "s")
    for layer in ("lexicon.load", "functors.load", "semantics.load"):
        metrics[f"{layer}.self_s"] = (setup_totals["self_s"][layer], "s")
    metrics["semantics.lcg_array.calls"] = (setup_totals["calls"]["semantics.lcg_array"], "count")
    metrics["semantics.lcg_array.self_s"] = (setup_totals["self_s"]["semantics.lcg_array"], "s")
    selections = counts["selections"]
    metrics["lexicon.alternatives_per_token"] = (
        counts["types_of.results"] / max(calls["lexicon.types_of"], 1), "count")
    metrics["reduction.selections_per_item"] = (selections / items, "count")
    metrics["reduction.hit_ratio"] = (counts["selections.hit"] / max(selections, 1), "ratio")
    metrics["reduction.simple_types_per_item"] = (
        counts["simple_types"] / max(selections, 1), "count")
    metrics["reduction.witnesses_per_item"] = (counts["witnesses"] / items, "count")
    metrics["input.tokens_per_item"] = (phase.tokens / items, "count")
    root = self_s["bench.batch"] + self_s["bench.item"]
    metrics["unattributed_s"] = (root / items, "s")
    metrics["tracing.overhead_items_per_s"] = (overhead, "1/s")
    return metrics


MODULES = ("core", "lexicon", "reduction", "functors", "semantics", "cli", "bench")


def print_shares(totals):
    self_s = totals["self_s"]
    whole = sum(self_s.values()) or 1.0
    shares = {m: sum(v for k, v in self_s.items() if k.split(".")[0] == m) / whole
              for m in MODULES}
    print("self-time share by module (bench = unattributed): " + ", ".join(
        f"{m} {shares[m]:.1%}" for m in MODULES))
    for layer in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  span {layer:28s} calls {totals['calls'][layer]:>9d}  self {self_s[layer]:.6f} s")


def report(metrics):
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-{args.seed}")
    try:
        fresh_import()
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload.prepare()
    print(f"workload {workload.name} seed {args.seed}: inputs sha256 {workload.digest()}; "
          f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}")

    setups = []
    P, ctx = set_up(workload, setups)
    phase = timed_phase(workload, P, ctx, args.seconds, setups=setups)
    metrics = end_to_end(workload, phase, setups)
    attempted, failed, errors = phase.attempted, phase.failed, list(phase.errors)
    print(f"work: {phase.tokens / max(attempted, 1):.3f} tokens/item; "
          f"failed_frac {failed / max(attempted, 1):.6g}; threads {thread_count()}")

    if args.trace:
        untraced_rate = metrics["items_per_s"][0]
        tracer = spans.Tracer()
        P = fresh_import()
        spans.install(P, tracer)
        ctx = workload.load(P)
        setup_totals = tracer.take()
        gc.collect()
        traced = timed_phase(workload, P, ctx, args.seconds, tracer)
        totals = tracer.take()
        attempted += traced.attempted
        failed += traced.failed
        errors += traced.errors
        overhead = throughput(traced) - untraced_rate
        print_shares(totals)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
        metrics = per_layer(traced, setup_totals, totals, overhead)

    for why in errors:
        print(f"FAIL {why}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report(metrics)}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
