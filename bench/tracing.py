"""Spans recorded from outside daycast, and the per-layer table built from them.

A Tracer replaces public daycast functions with wrappers under the name
their caller looks them up by (for example `daycast.cli.compare`, which
the CLI imported by name, or `daycast.linmodels.fit_polynomial`, which
the harness reads through its module). Each wrapped call appends one
span [name, start, end, parent index, operation id, attributes] to an
in-memory list; nothing is written until the run ends. Nothing under
src/ knows it is traced.
"""

import functools
import statistics
from time import perf_counter

# Layers in report order; a span's layer is the part of its name before the dot.
LAYERS = ("cli", "config", "tmy3", "evalharness", "linmodels", "smoothers", "arima",
          "tree", "nexting", "reportio", "bench")


def _arima_fit_attrs(result=None, exc=None):
    model = result if exc is None else getattr(exc, "model", None)
    attrs = {"failed": exc is not None}
    if model is not None:
        attrs["iterations"] = len(model.fit_trace) - 1
    return attrs


def _parse_attrs(result=None, exc=None):
    return {"rows": len(result[0])} if exc is None else {}


def _run_online_attrs(args, kwargs):
    return {"steps": len(args[0][0])}


class Tracer:
    """Wraps daycast entry points and records one span per wrapped call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, owner, attr, name, on_call=None, on_exit=None):
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op,
                    on_call(args, kwargs) if on_call else {}]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[5]["error"] = type(exc).__name__
                if on_exit:
                    span[5].update(on_exit(exc=exc))
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if on_exit:
                span[5].update(on_exit(result=result))
            return result

        self._patches.append((owner, attr, original, traced))

    def wrap_daycast(self):
        """Register the wrappers for every layer the workloads reach."""
        from daycast import arima, cli, config, evalharness, linmodels, nexting, smoothers, tmy3, tree

        w = self._wrap
        w(cli, "run_cli", "cli.run_cli")
        w(cli, "load_config", "config.load")
        w(cli, "load_dataset", "config.dataset")
        w(cli, "band_from_config", "config.band")
        w(config, "parse_tmy3", "tmy3.parse", on_exit=_parse_attrs)
        w(tmy3, "parse_tmy3", "tmy3.parse", on_exit=_parse_attrs)
        w(cli, "compare", "evalharness.compare")
        w(evalharness, "compare", "evalharness.compare")
        w(evalharness, "run_single", "evalharness.run_single")
        w(evalharness, "rmse", "evalharness.score")
        w(evalharness, "consecutive_within", "evalharness.score")
        for fit in ("fit_polynomial", "fit_basis", "fit_rbf"):
            w(linmodels, fit, "linmodels.fit")
        w(linmodels.LinearFit, "predict", "linmodels.predict")
        w(smoothers, "fit_smoothing_spline", "smoothers.spline_fit")
        w(smoothers.SplineFit, "predict", "smoothers.predict")
        w(arima, "css_estimate", "arima.fit", on_exit=_arima_fit_attrs)
        w(arima, "forecast", "arima.forecast")
        w(tree, "grow", "tree.fit")
        w(tree.PeriodicWrapper, "predict", "tree.predict")
        w(nexting, "run_online", "nexting.run", on_call=_run_online_attrs)
        w(cli, "run_online", "nexting.run", on_call=_run_online_attrs)
        w(nexting, "align_affine", "nexting.align")
        w(cli, "export_report", "reportio.export")
        w(cli, "export_series", "reportio.export")
        w(cli, "format_report_table", "reportio.table")

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def root(self, op: int):
        """Open the span that covers one whole operation; returns its closer."""
        self.op = op
        span = ["bench.op", 0.0, 0.0, -1, op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()

        def close():
            span[2] = perf_counter()
            self._stack.pop()
            self.op = -1
        return close


# Spans summed per operation: own time of the CLI and harness spans, and
# the whole of the scoring calls.
_PER_OP = {"cli.run_cli": "cli", "evalharness.compare": "eval",
           "evalharness.run_single": "eval", "evalharness.score": "score"}


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list, traced_ops: set) -> dict:
    """Per-layer figures from spans; layers never called report 0.

    Times ending in _ms are medians per call, except the *.self_ms and
    evalharness.score_ms figures, which are medians per operation.
    `<layer>.calls` counts wrapped calls per operation and `<layer>.share`
    is the layer's self time over the summed operation time.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = {}
    per_op = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    op_time = 0.0
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        by_name.setdefault(name, []).append((dur, own, attrs))
        if op not in traced_ops:
            continue
        layer = name.split(".")[0]
        if name == "bench.op":
            op_time += dur
        else:
            layer_calls[layer] += 1
        layer_self[layer] += own
        key = _PER_OP.get(name)
        if key:
            per_op.setdefault(key, {}).setdefault(op, 0.0)
            per_op[key][op] += own if key != "score" else dur

    def durs(name, own=False):
        return [d[1] if own else d[0] for d in by_name.get(name, ())]

    def attr_values(name, key):
        return [a[key] for _, _, a in by_name.get(name, ()) if key in a]

    parse_s = sum(durs("tmy3.parse"))
    run_s = sum(durs("nexting.run"))
    fits = attr_values("arima.fit", "failed")
    iterations = attr_values("arima.fit", "iterations")
    out = {
        "cli.self_ms": _median_ms(list(per_op.get("cli", {}).values())),
        "config.load_ms": _median_ms(durs("config.load")),
        "config.dataset_ms": _median_ms(durs("config.dataset", own=True)),
        "tmy3.parse_ms": _median_ms(durs("tmy3.parse")),
        "tmy3.rows_per_s": sum(attr_values("tmy3.parse", "rows")) / parse_s if parse_s else 0.0,
        "evalharness.self_ms": _median_ms(list(per_op.get("eval", {}).values())),
        "evalharness.score_ms": _median_ms(list(per_op.get("score", {}).values())),
        "linmodels.fit_ms": _median_ms(durs("linmodels.fit")),
        "smoothers.spline_fit_ms": _median_ms(durs("smoothers.spline_fit")),
        "arima.fit_ms": _median_ms(durs("arima.fit")),
        "arima.forecast_ms": _median_ms(durs("arima.forecast")),
        "arima.iterations": statistics.fmean(iterations) if iterations else 0.0,
        "arima.fit_failed_frac": sum(fits) / len(fits) if fits else 0.0,
        "tree.fit_ms": _median_ms(durs("tree.fit")),
        "nexting.run_ms": _median_ms(durs("nexting.run")),
        "nexting.steps_per_s": sum(attr_values("nexting.run", "steps")) / run_s if run_s else 0.0,
        "nexting.align_ms": _median_ms(durs("nexting.align")),
        "reportio.export_ms": _median_ms(durs("reportio.export")),
        "reportio.table_ms": _median_ms(durs("reportio.table")),
    }
    n_ops = max(len(traced_ops), 1)
    for layer in LAYERS:
        if layer != "bench":
            out[f"{layer}.calls"] = layer_calls[layer] / n_ops
        out[f"{layer}.share"] = layer_self[layer] / op_time if op_time else 0.0
    return out
