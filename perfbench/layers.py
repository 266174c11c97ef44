"""Per-layer tracing of uwbsim from the benchmark's own files.

For the length of one traced operation, each function in SITES is replaced
in the module namespace that resolves the call by a wrapper that records a
span: name, operation, parent span, start and end.  ``harness`` and ``joint``
bind the msdd functions with ``from .msdd import ...``, so those names are
wrapped in the caller's namespace; patching ``msdd`` itself would record
nothing for them (and would split detect_mmsdd's own msdd_app call off as a
child span).  Names reached as ``module.function`` or from inside their own
module (``ldpc.syndrome_weight`` inside ``decode``,
``waveform.brickwall_lowpass`` inside ``add_awgn_and_filter``) are wrapped in
the defining module.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.  ``harness.driver`` is the whole operation, so its self time is what
the campaign driver spends outside every traced layer.
"""

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> uwbsim module whose namespace resolves the traced calls
SITES = {
    "msdd.detect_dd": "harness",
    "msdd.bmsdd_detect": "harness",
    "msdd.detect_mmsdd": "harness",
    "msdd.msdd_app": "joint",
    "msdd.bmsdd_extrinsic": "joint",
    "joint.run_joint": "joint",
    "ldpc.decode": "ldpc",
    "ldpc.syndrome_weight": "ldpc",
    "ldpc.encode": "ldpc",
    "beliefs.to_llr": "beliefs",
    "beliefs.from_llr": "beliefs",
    "waveform.brickwall_lowpass": "waveform",
    "waveform.add_awgn_and_filter": "waveform",
    "waveform.apply_channel": "waveform",
    "acr.sample_overlapping": "acr",
    "acr.generate_discrete": "acr",
    "acr.generate_discrete_blocks": "acr",
    "acr.estimate_Eg": "acr",
    "channel.generate_cm2": "channel",
    "channel.effective_captured_energy": "channel",
}
DRIVER = "harness.driver"
# spans keyed by the window size M, as "<name>.M<m>"
SPLIT_BY_M = {"msdd.detect_mmsdd": (2, 3, 7)}
# counts read off a span's return value
OBSERVE = {
    "ldpc.decode": lambda r: {"inner_iters": r.n_iterations},
    "joint.run_joint": lambda r: {"outer_iters": r.n_outer_run,
                                  "converged": int(r.converged)},
}
# each call draws the correlation samples of one packet
PACKET_SPANS = ("acr.generate_discrete", "acr.generate_discrete_blocks",
                "acr.sample_overlapping")


def span_labels() -> list[str]:
    out = []
    for name in SITES:
        out += ([f"{name}.M{m}" for m in SPLIT_BY_M[name]]
                if name in SPLIT_BY_M else [name])
    return out


# name -> (unit, better) of every per-layer metric, in output order
PER_LAYER = {}
for _label in span_labels():
    PER_LAYER[f"{_label}.calls"] = ("calls/op", "lower")
    PER_LAYER[f"{_label}.self_s"] = ("s/op", "lower")
PER_LAYER.update({
    "ldpc.decode.inner_iters": ("iters/op", "lower"),
    "joint.run_joint.outer_iters": ("iters/op", "lower"),
    "joint.run_joint.converged_frac": ("ratio", "higher"),
    "harness.packets": ("packets/op", "higher"),
    "harness.driver.self_s": ("s/op", "lower"),
    "setup.default_code_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
})


def _window(args, kwargs) -> int:
    return int(kwargs["M"] if "M" in kwargs else args[1])


class Tracer:
    """Collects spans of traced operations in memory."""

    def __init__(self):
        # [label, op, parent index, start, end, counts]
        self.records = []
        self._open = []
        self._op = None

    def _enter(self, label: str) -> int:
        parent = self._open[-1] if self._open else None
        self.records.append([label, self._op, parent, time.perf_counter(),
                             None, None])
        self._open.append(len(self.records) - 1)
        return self._open[-1]

    def _exit(self, idx: int) -> None:
        self.records[idx][4] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        split = name in SPLIT_BY_M

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.M{_window(args, kwargs)}" if split else name
            idx = self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                self.records[idx][5] = observe(result)
            return result
        return traced

    @contextmanager
    def operation(self, op: int):
        """Trace one operation: wrap every site and open its driver span."""
        patched = []
        try:
            for name, where in SITES.items():
                mod = importlib.import_module(f"uwbsim.{where}")
                attr = name.split(".", 1)[1]
                orig = getattr(mod, attr)
                setattr(mod, attr, self._wrap(name, orig))
                patched.append((mod, attr, orig))
            self._op = op
            idx = self._enter(DRIVER)
            try:
                yield
            finally:
                self._exit(idx)
                self._op = None
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def _per_op(self):
        """op -> label -> [calls, self seconds, {count: total}]."""
        child = [0.0] * len(self.records)
        for _, _, parent, t0, t1, _ in self.records:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, defaultdict(int)]))
        for i, (label, op, _, t0, t1, counts) in enumerate(self.records):
            acc = out[op][label]
            acc[0] += 1
            acc[1] += (t1 - t0) - child[i]
            for k, v in (counts or {}).items():
                acc[2][k] += v
        return out

    def missing_spans(self, op: int, expected) -> list[str]:
        """Expected spans that recorded no call in operation `op`."""
        got = self._per_op()[op]
        return [name for name in expected if got[name][0] == 0]

    def metrics(self, count_op: int, timed_ops, default_code_s: float,
                overhead: float) -> dict:
        """Per-layer metrics.  Counts come from operation `count_op`, a
        fixed input, so a change that only alters speed leaves them equal;
        self times are means over `timed_ops`."""
        per_op = self._per_op()
        counted = per_op[count_op]
        vals = {}
        for label in span_labels():
            vals[f"{label}.calls"] = counted[label][0]
            vals[f"{label}.self_s"] = statistics.fmean(
                per_op[op][label][1] for op in timed_ops)
        decode, joint = counted["ldpc.decode"], counted["joint.run_joint"]
        vals["ldpc.decode.inner_iters"] = decode[2]["inner_iters"]
        vals["joint.run_joint.outer_iters"] = joint[2]["outer_iters"]
        vals["joint.run_joint.converged_frac"] = (
            joint[2]["converged"] / joint[0] if joint[0] else 0.0)
        vals["harness.packets"] = sum(counted[s][0] for s in PACKET_SPANS)
        vals["harness.driver.self_s"] = statistics.fmean(
            per_op[op][DRIVER][1] for op in timed_ops)
        vals["setup.default_code_s"] = default_code_s
        vals["trace.overhead"] = overhead
        return {name: {"value": vals[name], "unit": PER_LAYER[name][0]}
                for name in PER_LAYER}

    def shares(self, timed_ops) -> dict:
        """Each span's share of traced operation wall time."""
        per_op = self._per_op()
        wall = sum(r[4] - r[3] for r in self.records
                   if r[0] == DRIVER and r[1] in timed_ops)
        tot = defaultdict(float)
        for op in timed_ops:
            for label, acc in per_op[op].items():
                tot[label] += acc[1]
        return {k: v / wall for k, v in sorted(tot.items(), key=lambda kv: -kv[1])}

    def write(self, path) -> None:
        with open(path, "w") as f:
            for label, op, parent, t0, t1, counts in self.records:
                f.write(json.dumps({"name": label, "op": op, "parent": parent,
                                    "start": t0, "end": t1,
                                    "counts": counts}) + "\n")
