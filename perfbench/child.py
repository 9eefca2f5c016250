"""One benchmark pass in a fresh interpreter.

Usage (the harness does this, with ``src`` on PYTHONPATH):

    python child.py '{"argvs": [[...], ...], "trace": [], "result": "pass.json"}'

The first thing the process does is ``import fieldnorm.cli``; the monotonic
time at which that import returns is reported so the harness can measure
set-up time from its own spawn time.  Each argv is then passed to
``fieldnorm.cli.main`` in order and timed.  A fixed reference loop measures
how fast the machine runs meanwhile: in full right before and right after
the commands, and as a short probe every ``PROBE_EVERY_S`` seconds during
them (untraced passes only).  Probe time is taken out of the command times.

``trace`` lists the functions to trace as ``[span name, defining module,
attribute]``.  Each is wrapped at every module attribute that refers to it
(a dotted attribute is a method, wrapped on its class) before the first
call, and the spans are written out with the result.
"""

import json
import sys
import time

import fieldnorm.cli

IMPORTED = time.monotonic()

import functools  # noqa: E402  (kept out of the set-up measurement)
import inspect  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by fieldnorm)


# A probe runs PROBE_ROUNDS of the reference's 1000 rounds, about 4 ms, so
# probing costs about 2% of a pass and is subtracted from its wall time.
PROBE_EVERY_S = 0.25
PROBE_ROUNDS = 25


def reference(rounds: int = 1000) -> float:
    """Seconds per 1000 rounds of a fixed mix of interpreter and numpy work.

    The mix resembles the program's own: cell lines parsed into counts,
    tuples turned into arrays, index draws, ``log1p`` means and dict
    building.  It never changes, so it measures the machine, not the
    program.
    """
    rng = np.random.default_rng(20161205)
    counts = tuple(int(c) for c in rng.integers(0, 60, 1000))
    lines = [f"a{i}\t{c}" for i, c in enumerate(counts)]
    start = time.perf_counter()
    acc = 0.0
    for _ in range(rounds):
        parsed = tuple(int(line.partition("\t")[2]) for line in lines[:300])
        arr = np.asarray(counts, dtype=np.int64)
        acc += float(np.log1p(arr[rng.integers(0, len(arr), len(arr))]).mean()) + len(parsed)
        acc += sum({i: i * i for i in range(100)}.values())
    return (time.perf_counter() - start) * 1000 / rounds


def _articles(sets):
    return sum(len(s) for s in sets)


# Counts noted on spans, measured where the work happens.  ARG_NOTES read
# the call's arguments by parameter name, whatever the call style.
ARG_NOTES = {
    "corpus.read_cell": lambda a, r: [len(r), os.path.getsize(a["path"])],
    "indicators.compute_baseline": lambda a, r: f"{a['world'].group}|{a['world'].key}",
    "bootstrap.bootstrap_indicator": lambda a, r: [
        a["indicator"],
        a["spec"].iterations,
        _articles(a["group_sets"])
        + (_articles(a["world_sets"]) if a["spec"].resample_world else 0),
    ],
}
RESULT_NOTES = {
    "bootstrap.point_estimate": lambda r: int(r is None),
    "report.build_report": lambda r: len(r.rows),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []
        self.note_errors = set()

    def _note(self, name, fn):
        if name in ARG_NOTES:
            bind, arg_note = inspect.signature(fn).bind, ARG_NOTES[name]
            return lambda args, kwargs, result: arg_note(bind(*args, **kwargs).arguments, result)
        if name in RESULT_NOTES:
            result_note = RESULT_NOTES[name]
            return lambda args, kwargs, result: result_note(result)
        return None

    def wrap(self, name, fn):
        note = self._note(name, fn)
        spans, stack, note_errors = self.spans, self.stack, self.note_errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [name, start, clock(), parent, None]
                raise
            finally:
                stack.pop()
            end = clock()
            info = None
            if note is not None:
                try:
                    info = note(args, kwargs, result)
                except Exception:  # a refactor changed what the note reads
                    note_errors.add(name)
            spans[index] = [name, start, end, parent, info]
            return result

        return traced

    def install(self, targets):
        modules = [m for n, m in sys.modules.items()
                   if n == "fieldnorm" or n.startswith("fieldnorm.")]
        for name, module_name, attr in targets:
            owner = sys.modules.get(f"fieldnorm.{module_name}")
            cls_name, _, method = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = getattr(holder, method, None)
            if original is None:
                # A later refactor removed the function: it reads 0 calls.
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if cls_name:
                setattr(holder, method, wrapped)
                continue
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapped)


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install(spec["trace"])
    walls, codes = [], []
    samples = [reference()]
    paused = [0.0]

    def probe(signum, frame):
        start = time.perf_counter()
        samples.append(reference(PROBE_ROUNDS))
        paused[0] += time.perf_counter() - start

    if tracer is None:  # probes would land inside traced spans
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    for argv in spec["argvs"]:
        start, paused_before = time.perf_counter(), paused[0]
        code = fieldnorm.cli.main(argv)
        walls.append(time.perf_counter() - start - (paused[0] - paused_before))
        codes.append(code)
        if code != 0:
            break
    signal.setitimer(signal.ITIMER_REAL, 0)
    samples.append(reference())
    result = {
        "imported": IMPORTED,
        "reference_s": samples,
        "walls": walls,
        "codes": codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fieldnorm_file": fieldnorm.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
        result["note_errors"] = sorted(tracer.note_errors)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
