"""Span tracer for the traced benchmark run.

The tracer patches the public functions of the six ecgfusion layers in
the module where each caller looks them up (``autodiff.matmul``,
``training.backward``, ``cli.load_checkpoint``, ...), so no file of the
program changes.  Every call records a span: (id, name, start, end,
parent, run).  Spans stay in memory and are written out when the run
ends; self times are computed afterwards.

Backward rules are attributed per op: each op wrapper notes the tape
length before and after the call and wraps the rules it appended, so a
rule's span is named after the op that recorded it and nests under the
``autodiff.backward`` span.  The tracer reads ``Tape.nodes`` and
``_Node.rule`` for that, so a change to the tape's layout must be
followed here.

The tracer's own work after a call (counters, FLOP counts, wrapping
rules, the scan for gradient bytes) is recorded as a ``trace`` span
under the caller, so it is kept out of every layer's self time and
shows as ``trace.self_ms`` instead.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import time
import types
from collections import Counter, defaultdict

LAYERS = ("autodiff", "model", "training", "sigproc", "data", "cli")

# autodiff ops by reported group; every op not named here is elementwise
OP_GROUPS = {
    "attention_heads": "attention_heads",
    "matmul": "matmul",
    "layer_norm": "layer_norm",
    "conv2d": "conv2d",
    "max_pool2d": "max_pool2d",
    "transpose": "shape",
    "reshape": "shape",
    "concat": "shape",
    "repeat_rows": "shape",
}
ELEMENTWISE_OPS = (
    "add", "sub", "mul", "neg", "scale", "sum_all", "mean_all",
    "relu", "sigmoid", "softmax_rows", "dropout", "bce_with_logits",
)
GROUPS = ("attention_heads", "matmul", "layer_norm", "conv2d", "max_pool2d", "elementwise", "shape")


def _op_group(op: str):
    if op in OP_GROUPS:
        return OP_GROUPS[op]
    return "elementwise" if op in ELEMENTWISE_OPS else None


def _matmul_flops(args):
    (m, k), n = args[0].shape, args[1].shape[1]
    return 2 * m * k * n, 4 * m * k * n


def _attention_flops(args):
    q, k, v = args[0], args[1], args[2]
    lq, d = q.shape
    unit = lq * k.shape[0] * d
    grads = sum(t.requires_grad for t in (q, k, v))
    # forward: scores and probs @ v; backward: dp plus one product per operand grad
    return 4 * unit, 2 * unit * (1 + grads)


FLOPS = {"matmul": _matmul_flops, "attention_heads": _attention_flops}


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# bytes moved by the file-format functions, computed from sizes
IO_COUNTERS = {
    "data.read_manifest": ("data.bytes_read", _file_bytes),
    "data.load_embeddings": ("data.bytes_read", _file_bytes),
    "data.read_waveform": ("data.bytes_read", lambda args, result: result.size * 4),
    "data.write_manifest": ("data.bytes_written", _file_bytes),
    "data.write_embeddings": ("data.bytes_written", _file_bytes),
    "data.write_waveform": ("data.bytes_written", lambda args, result: args[1].size * 4),
    "model.save_checkpoint": ("model.checkpoint_bytes", _file_bytes),
    "model.load_checkpoint": ("model.checkpoint_bytes", _file_bytes),
}


class Tracer:
    """Records spans from patched ecgfusion functions while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.autodiff = modules["autodiff"]
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._next_id = 0
        self._stack = [-1]
        self._wrappers: dict = {}
        self._saved: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                origin = getattr(value, "__module__", "") or ""
                if not origin.startswith("ecgfusion.") or origin.split(".")[-1] not in LAYERS:
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrapper(value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrapper(self, fn):
        if fn not in self._wrappers:
            name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
            layer, op = name.split(".", 1)
            if layer == "autodiff" and _op_group(op):
                self._wrappers[fn] = self._wrap_op(fn, name, op)
            elif name == "autodiff.backward":
                self._wrappers[fn] = self._wrap_backward(fn, name)
            else:
                self._wrappers[fn] = self._wrap_call(fn, name)
        return self._wrappers[fn]

    # -- spans ------------------------------------------------------------

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: int) -> int:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, self._stack[-1], self.run))
        return t1

    def _own(self, t0: int) -> None:
        """Record the tracer's own work since ``t0`` as a ``trace`` span
        under the current parent."""
        sid = self._next_id
        self._next_id += 1
        self.spans.append((sid, "trace", t0, time.perf_counter_ns(), self._stack[-1], self.run))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, with the patches installed
        only inside it, so checks run between spans stay untraced."""
        self.install()
        sid = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, name, t0)
            self.uninstall()

    def _wrap_call(self, fn, name):
        tracer = self
        io = IO_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tracer._close(sid, name, t0)
            if io is not None:
                tracer.counts[io[0]] += io[1](args, result)
                tracer._own(t1)
            return result

        return traced

    def _wrap_op(self, fn, name, op):
        tracer = self
        active_tape = self.autodiff._active_tape
        flops = FLOPS.get(op)
        flop_key = f"autodiff.{op}.flop"
        bwd_name = f"{name}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tape = active_tape()
            before = len(tape.nodes) if tape is not None else 0
            sid = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tracer._close(sid, name, t0)
            tracer.counts["autodiff.op_calls"] += 1
            bwd_flops = 0
            if flops:
                fwd_flops, bwd_flops = flops(args)
                tracer.counts[flop_key] += fwd_flops
            if tape is not None:
                for node in tape.nodes[before:]:
                    node.rule = tracer._wrap_rule(node.rule, bwd_name, flop_key, bwd_flops)
            tracer._own(t1)
            return result

        return traced

    def _wrap_rule(self, rule, name, flop_key, flops):
        tracer = self

        def traced_rule(g):
            sid = tracer._open()
            t0 = time.perf_counter_ns()
            try:
                return rule(g)
            finally:
                t1 = tracer._close(sid, name, t0)
                if flops:
                    tracer.counts[flop_key] += flops
                    tracer._own(t1)

        return traced_rule

    def _wrap_backward(self, fn, name):
        tracer = self
        call = self._wrap_call(fn, name)

        @functools.wraps(fn)
        def traced(loss, tape):
            call(loss, tape)
            t0 = time.perf_counter_ns()
            held = {}
            for node in tape.nodes:
                for t in (node.out, *node.inputs):
                    if t.grad is not None:
                        held[id(t)] = t.grad.nbytes
            tracer.counts["autodiff.tape_nodes"] += len(tape.nodes)
            grad_bytes = sum(held.values())
            tracer.counts["autodiff.grad_bytes_max"] = max(tracer.counts["autodiff.grad_bytes_max"], grad_bytes)
            tracer._own(t0)

        return traced


def write_spans(spans, path) -> None:
    """Spans as gzip CSV, times in ns from the first span's start."""
    base = min((s[2] for s in spans), default=0)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id,name,start_ns,end_ns,parent,run\n")
        for sid, name, t0, t1, parent, run in sorted(spans):
            fh.write(f"{sid},{name},{t0 - base},{t1 - base},{parent},{run}\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover (ns)."""
    child = defaultdict(int)
    for _, _, t0, t1, parent, _ in spans:
        child[parent] += t1 - t0
    return {sid: (t1 - t0) - child[sid] for sid, _, t0, t1, _, _ in spans}


def layer_metrics(spans, counts: Counter, n_runs: int) -> dict:
    """Per-layer metrics per traced pass: times are means over the
    ``n_runs`` passes in ``spans``; ``counts`` are one pass's counters."""
    selfs = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[4] for s in spans}
    incl = defaultdict(int)
    excl = defaultdict(int)
    for sid, name, t0, t1, _, _ in spans:
        incl[name] += t1 - t0
        excl[name] += selfs[sid]

    def under(sid, ancestor):
        sid = parents[sid]
        while sid != -1:
            if names[sid] == ancestor:
                return True
            sid = parents[sid]
        return False

    def ms(ns):
        return ns / 1e6 / n_runs

    out = {}
    for group in GROUPS:
        fwd = sum(v for k, v in incl.items() if k.startswith("autodiff.") and not k.endswith(".bwd")
                  and _op_group(k.split(".", 1)[1]) == group)
        bwd = sum(v for k, v in incl.items() if k.endswith(".bwd") and _op_group(k.split(".")[1]) == group)
        out[f"autodiff.{group}.fwd_ms"] = ms(fwd)
        out[f"autodiff.{group}.bwd_ms"] = ms(bwd)
    for op in ("attention_heads", "matmul"):
        out[f"autodiff.{op}.gflop"] = counts[f"autodiff.{op}.flop"] / 1e9
    out["autodiff.backward.bookkeeping_ms"] = ms(excl["autodiff.backward"])
    out["autodiff.grad_mb"] = counts["autodiff.grad_bytes_max"] / 1e6
    out["autodiff.tape_nodes"] = counts["autodiff.tape_nodes"]
    out["autodiff.op_calls"] = counts["autodiff.op_calls"]

    for fn in ("condense_leads", "encoder_forward", "notes_adapt", "decoder_forward",
               "residual_merge", "classifier_forward", "save_checkpoint", "load_checkpoint"):
        out[f"model.{fn}_ms"] = ms(incl[f"model.{fn}"])
    out["model.forward_self_ms"] = ms(excl["model.forward"])
    out["model.checkpoint_mb"] = counts["model.checkpoint_bytes"] / 1e6

    train_fwd = sum(t1 - t0 for sid, name, t0, t1, _, _ in spans
                    if name == "model.forward" and under(sid, "training.train_epoch"))
    out["training.forward_ms"] = ms(train_fwd)
    out["training.backward_ms"] = ms(incl["autodiff.backward"])
    out["training.adam_step_ms"] = ms(incl["training.adam_step"])
    out["training.train_epoch_self_ms"] = ms(excl["training.train_epoch"])
    out["training.evaluate_ms"] = ms(incl["training.evaluate"])
    out["training.epochs"] = sum(1 for s in spans if s[1] == "training.train_epoch") / n_runs

    out["sigproc.dwt_db4_ms"] = ms(incl["sigproc.dwt_db4"])
    out["sigproc.idwt_db4_ms"] = ms(incl["sigproc.idwt_db4"])
    out["sigproc.threshold_ms"] = ms(incl["sigproc.compute_threshold"] + incl["sigproc.soft_threshold"])
    out["sigproc.standardize_ms"] = ms(incl["sigproc.standardize"])
    out["sigproc.preprocess_record_self_ms"] = ms(
        excl["sigproc.preprocess_record"] + excl["sigproc.denoise"] + excl["sigproc.truncate_quarter"]
    )

    for fn in ("read_manifest", "read_waveform", "write_waveform", "write_manifest", "load_embeddings"):
        out[f"data.{fn}_ms"] = ms(incl[f"data.{fn}"])
    out["data.curate_ms"] = ms(incl["data.drop_blank_reports"] + incl["data.balance_undersample"] + incl["data.split"])
    out["data.mb_read"] = counts["data.bytes_read"] / 1e6
    out["data.mb_written"] = counts["data.bytes_written"] / 1e6

    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(sum(v for k, v in excl.items() if k.split(".")[0] == layer))
    out["trace.self_ms"] = ms(incl["trace"])
    return out
