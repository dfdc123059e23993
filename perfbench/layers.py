"""Which loadcast calls the traced run records, and the per-layer metrics
computed from those spans.

Layers are the package's modules. `cli` is left out: it is a thin argparse
wrapper over the same functions. Every per-layer metric is reported on every
workload; 0 means the workload never calls that code.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracing import Span, bind, self_times

LAYERS = ("synthetic", "ingest", "features", "dataset", "neural", "svr",
          "models", "evaluation", "artifact", "experiments")
KINDS = ("persistence", "svr", "fcnn", "lstm", "lrcn")
NETWORK_KINDS = ("fcnn", "lstm", "lrcn")
NEURAL_CLASSES = ("Dense", "Conv1D", "LSTM", "Dropout")
TRAIN_BATCH = 256
SVR_HORIZONS = 4


def _epsilon_objective(fit_epsilon):
    """Post hook: the objective the epsilon solver minimises, evaluated at
    the (w, b) it returned."""
    arguments = bind(fit_epsilon)

    def post(result, *args, **kwargs) -> dict:
        a = arguments(*args, **kwargs)
        w, b = result
        x = np.asarray(a["x"], dtype=np.float64)
        y = np.asarray(a["y"], dtype=np.float64)
        hinge = np.maximum(0.0, np.abs(y - (x @ w + b)) - a["epsilon"])
        return {"objective": 0.5 * float(w @ w) / len(y) + a["c"] * float(hinge.mean())}

    return post


def _batch(_self, x, *args, **kwargs) -> dict:
    return {"batch": len(x)}


def _network_forward(_self, x, training=False, rng=None) -> dict:
    return {"batch": len(x), "training": bool(training)}


def _spec_kind(spec, *args, **kwargs) -> dict:
    return {"kind": spec.kind}


def _train_kind(dataset, spec, *args, **kwargs) -> dict:
    return {"kind": spec.kind}


def _model_kind(model, *args, **kwargs) -> dict:
    return {"kind": model.spec.kind}


def _predict_batch(model, raw_inputs, *args, **kwargs) -> dict:
    return {"kind": model.spec.kind, "n": len(raw_inputs)}


def targets():
    """(module, qualname, span name, pre, post) for every traced call."""
    from loadcast import svr

    out = [
        ("synthetic", "generate_synthetic", "synthetic.generate", None, None),
        ("ingest", "parse_load_csv", "ingest.parse_load_csv", None, None),
        ("ingest", "parse_weather_csv", "ingest.parse_weather_csv", None, None),
        ("ingest", "align", "ingest.align", None, None),
        ("ingest", "load_and_align", "ingest.load_and_align", None,
         lambda r, *a, **k: {"rows": len(r)}),
        ("ingest", "write_aligned_csv", "ingest.write_aligned_csv", None, None),
        ("ingest", "read_aligned_csv", "ingest.read_aligned_csv", None, None),
        ("features", "assemble", "features.assemble",
         lambda series, *a, **k: {"rows": len(series)}, None),
        ("dataset", "build_windows", "dataset.build_windows", None, None),
        ("dataset", "chronological_split", "dataset.chronological_split", None, None),
        ("dataset", "Normalizer.fit", "dataset.Normalizer.fit", None, None),
        ("dataset", "Normalizer.transform", "dataset.Normalizer.transform", None, None),
        ("neural", "Network.forward", "neural.Network.forward", _network_forward, None),
        ("neural", "Network.backward", "neural.Network.backward", _batch, None),
        ("neural", "Adam.step", "neural.Adam.step", None, None),
        ("neural", "mse_loss", "neural.mse_loss", None, None),
        ("svr", "fit_epsilon", "svr.fit_epsilon", None, _epsilon_objective(svr.fit_epsilon)),
        ("svr", "fit_ridge", "svr.fit_ridge", None, None),
        ("models", "build_model", "models.build_model", _spec_kind, None),
        ("models", "train", "models.train", _train_kind,
         lambda r, *a, **k: {"epochs": len(r.history)}),
        ("models", "predict_batch", "models.predict_batch", _predict_batch, None),
        ("models", "predict_at", "models.predict_at", _model_kind, None),
        ("models", "save", "models.save", _model_kind, None),
        ("models", "load", "models.load", None, None),
        ("evaluation", "evaluate", "evaluation.evaluate", _model_kind,
         lambda r, *a, **k: {"mape": r.mape_pct}),
        ("artifact", "write_artifact", "artifact.write_artifact", None,
         lambda r, path, *a, **k: {"bytes": os.path.getsize(path)}),
        ("artifact", "read_artifact", "artifact.read_artifact", None, None),
        ("experiments", "run_grid", "experiments.run_grid", None, None),
    ]
    for cls in NEURAL_CLASSES:
        out.append(("neural", f"{cls}.forward", f"neural.{cls}.forward", _batch, None))
        out.append(("neural", f"{cls}.backward", f"neural.{cls}.backward", _batch, None))
    return out


# name -> (unit, better); the order is the order of the report
PER_LAYER: dict[str, tuple[str, str]] = {}


def _declare(names, unit, better):
    for name in names:
        PER_LAYER[name] = (unit, better)


_declare(["synthetic.generate_s"], "s", "lower")
_declare([f"ingest.{f}_s" for f in ("parse_load_csv", "parse_weather_csv", "align",
                                    "write_aligned_csv", "read_aligned_csv")], "s", "lower")
_declare(["ingest.rows"], "count", "higher")
_declare(["features.assemble_s"], "s", "lower")
_declare(["features.assemble_calls_per_forecast",
          "features.rows_assembled_per_forecast"], "count", "lower")
_declare([f"dataset.{f}_s" for f in ("build_windows", "chronological_split",
                                     "normalizer_fit", "transform")], "s", "lower")
for _cls in NEURAL_CLASSES:
    _declare([f"neural.{_cls}.forward_ms", f"neural.{_cls}.backward_ms"], "ms", "lower")
_declare(["neural.adam_step_ms", "neural.mse_loss_ms"], "ms", "lower")
_declare([f"neural.forward_n1_ms.{k}" for k in NETWORK_KINDS], "ms", "lower")
_declare([f"neural.batch_fwd_bwd_ms.{k}" for k in NETWORK_KINDS], "ms", "lower")
_declare(["neural.batches_per_round"], "count", "higher")
_declare([f"svr.fit_epsilon_s.h{h}" for h in range(SVR_HORIZONS)], "s", "lower")
_declare([f"svr.objective.h{h}" for h in range(SVR_HORIZONS)], "objective", "lower")
_declare(["svr.fit_ridge_s"], "s", "lower")
_declare([f"models.train_s.{k}" for k in KINDS], "s", "lower")
_declare([f"models.epochs_run.{k}" for k in NETWORK_KINDS], "count", "higher")
_declare(["models.build_model_per_predict"], "count", "lower")
_declare([f"models.build_model_ms.{k}" for k in NETWORK_KINDS], "ms", "lower")
_declare([f"models.predict_batch_n1_ms.{k}" for k in KINDS], "ms", "lower")
_declare(["models.predict_at_ms"], "ms", "lower")
_declare(["models.save_s", "models.load_s"], "s", "lower")
_declare([f"evaluation.evaluate_s.{k}" for k in KINDS], "s", "lower")
_declare([f"evaluation.test_mape_pct.{k}" for k in KINDS], "%", "lower")
_declare(["artifact.write_s", "artifact.read_s"], "s", "lower")
_declare(["artifact.bytes"], "bytes", "lower")
_declare(["experiments.run_grid_cold_s", "experiments.resume_s"], "s", "lower")
_declare(["experiments.jobs"], "count", "higher")
_declare(["experiments.jobs_resumed_on_rerun_ratio"], "ratio", "higher")
_declare(["experiments.row_failures"], "count", "lower")
_declare(["experiments.series_pickle_bytes_per_job"], "bytes", "lower")
_declare([f"{layer}.self_ms_per_round" for layer in LAYERS], "ms", "lower")
_declare(["trace.spans_per_round"], "count", "lower")
_declare(["trace.span_cost_us"], "us", "lower")
_declare(["trace.overhead_pct"], "%", "lower")
_declare(["trace.round_p90_ms"], "ms", "lower")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class SpanIndex:
    """Spans of one run, with parent links and the timed-round membership."""

    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
        self.rounds = [s for s in spans if s.name == "bench.round"]
        round_ids = {s.id for s in self.rounds}
        self.in_round = [s for s in spans
                         if s.name != "bench.round" and self._root(s) in round_ids]

    def _root(self, span: Span) -> str:
        while span.parent is not None and span.parent in self.by_id:
            span = self.by_id[span.parent]
        return span.id

    def ancestor(self, span: Span, name: str) -> Span | None:
        while span.parent is not None:
            span = self.by_id.get(span.parent)
            if span is None:
                return None
            if span.name == name:
                return span
        return None

    def named(self, name: str, pred=None) -> list[Span]:
        return [s for s in self.by_name.get(name, ()) if pred is None or pred(s)]

    def median_s(self, name: str, pred=None) -> float:
        return _median(s.duration for s in self.named(name, pred))

    def median_ms(self, name: str, pred=None) -> float:
        return 1e3 * self.median_s(name, pred)


def _kind_of_training(index: SpanIndex, span: Span) -> str | None:
    train = index.ancestor(span, "models.train")
    return train.attrs.get("kind") if train else None


def layer_metrics(spans: list[Span], facts: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    `facts` holds what the workload computed itself: experiments counts,
    `series_pickle_bytes_per_job`, the traced run's own `round_p90_ms` and
    `rounds_s`, the summed duration of its timed rounds.
    """
    ix = SpanIndex(spans)
    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    rounds = max(len(ix.rounds), 1)

    m["synthetic.generate_s"] = ix.median_s("synthetic.generate")
    for f in ("parse_load_csv", "parse_weather_csv", "align",
              "write_aligned_csv", "read_aligned_csv"):
        m[f"ingest.{f}_s"] = ix.median_s(f"ingest.{f}")
    m["ingest.rows"] = _median(s.attrs["rows"] for s in ix.named("ingest.load_and_align"))

    m["features.assemble_s"] = ix.median_s("features.assemble")
    forecasts = ix.named("models.predict_at")
    if forecasts:
        inside = [s for s in ix.named("features.assemble")
                  if ix.ancestor(s, "models.predict_at")]
        m["features.assemble_calls_per_forecast"] = len(inside) / len(forecasts)
        m["features.rows_assembled_per_forecast"] = (
            sum(s.attrs["rows"] for s in inside) / len(forecasts))

    m["dataset.build_windows_s"] = ix.median_s("dataset.build_windows")
    m["dataset.chronological_split_s"] = ix.median_s("dataset.chronological_split")
    m["dataset.normalizer_fit_s"] = ix.median_s("dataset.Normalizer.fit")
    m["dataset.transform_s"] = ix.median_s("dataset.Normalizer.transform")

    def at_train_batch(s):
        return s.attrs.get("batch") == TRAIN_BATCH

    for cls in NEURAL_CLASSES:
        m[f"neural.{cls}.forward_ms"] = ix.median_ms(f"neural.{cls}.forward", at_train_batch)
        m[f"neural.{cls}.backward_ms"] = ix.median_ms(f"neural.{cls}.backward", at_train_batch)
    m["neural.adam_step_ms"] = ix.median_ms("neural.Adam.step")
    m["neural.mse_loss_ms"] = ix.median_ms("neural.mse_loss")
    for kind in NETWORK_KINDS:
        def predicts_one(s, kind=kind):
            predict = ix.ancestor(s, "models.predict_batch")
            return s.attrs.get("batch") == 1 and predict and predict.attrs["kind"] == kind
        m[f"neural.forward_n1_ms.{kind}"] = ix.median_ms("neural.Network.forward", predicts_one)

        def of_kind(s, kind=kind):
            return at_train_batch(s) and _kind_of_training(ix, s) == kind
        fwd = ix.median_ms("neural.Network.forward",
                           lambda s: of_kind(s) and s.attrs.get("training"))
        bwd = ix.median_ms("neural.Network.backward", of_kind)
        m[f"neural.batch_fwd_bwd_ms.{kind}"] = fwd + bwd
    m["neural.batches_per_round"] = sum(
        1 for s in ix.in_round if s.name == "neural.Network.backward") / rounds

    per_horizon: dict[int, list[Span]] = {}
    for train in ix.named("models.train", lambda s: s.attrs.get("kind") == "svr"):
        fits = sorted(ix.named("svr.fit_epsilon", lambda s: s.parent == train.id),
                      key=lambda s: s.start)
        for h, fit in enumerate(fits):
            per_horizon.setdefault(h, []).append(fit)
    for h in range(SVR_HORIZONS):
        fits = per_horizon.get(h, [])
        m[f"svr.fit_epsilon_s.h{h}"] = _median(s.duration for s in fits)
        m[f"svr.objective.h{h}"] = _median(s.attrs["objective"] for s in fits)
    m["svr.fit_ridge_s"] = ix.median_s("svr.fit_ridge")

    for kind in KINDS:
        def is_kind(s, kind=kind):
            return s.attrs.get("kind") == kind
        m[f"models.train_s.{kind}"] = ix.median_s("models.train", is_kind)
        m[f"models.predict_batch_n1_ms.{kind}"] = ix.median_ms(
            "models.predict_batch", lambda s: is_kind(s) and s.attrs["n"] == 1)
        m[f"evaluation.evaluate_s.{kind}"] = ix.median_s("evaluation.evaluate", is_kind)
        m[f"evaluation.test_mape_pct.{kind}"] = _median(
            s.attrs["mape"] for s in ix.named("evaluation.evaluate", is_kind))
        if kind in NETWORK_KINDS:
            m[f"models.epochs_run.{kind}"] = _median(
                s.attrs["epochs"] for s in ix.named("models.train", is_kind))
            m[f"models.build_model_ms.{kind}"] = ix.median_ms(
                "models.build_model",
                lambda s: is_kind(s) and ix.ancestor(s, "models.predict_batch"))
    net_predicts = ix.named("models.predict_batch",
                            lambda s: s.attrs["kind"] in NETWORK_KINDS)
    if net_predicts:
        rebuilds = [s for s in ix.named("models.build_model")
                    if ix.ancestor(s, "models.predict_batch")]
        m["models.build_model_per_predict"] = len(rebuilds) / len(net_predicts)
    m["models.predict_at_ms"] = ix.median_ms("models.predict_at")
    m["models.save_s"] = ix.median_s("models.save")
    m["models.load_s"] = ix.median_s("models.load")

    m["artifact.write_s"] = ix.median_s("artifact.write_artifact")
    m["artifact.read_s"] = ix.median_s("artifact.read_artifact")
    m["artifact.bytes"] = _median(s.attrs["bytes"] for s in ix.named("artifact.write_artifact"))

    cold, resume = [], []
    for rnd in ix.rounds:
        grids = sorted(ix.named("experiments.run_grid", lambda s: s.parent == rnd.id),
                       key=lambda s: s.start)
        cold.extend(grids[:1])
        resume.extend(grids[1:2])
    m["experiments.run_grid_cold_s"] = _median(s.duration for s in cold)
    m["experiments.resume_s"] = _median(s.duration for s in resume)
    for key in ("experiments.jobs", "experiments.jobs_resumed_on_rerun_ratio",
                "experiments.row_failures", "experiments.series_pickle_bytes_per_job"):
        m[key] = float(facts.get(key, 0.0))

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_round"] = 1e3 * sum(
            own[s.id] for s in ix.in_round if s.layer == layer) / rounds

    # overhead measured in every wrapper, summed over the processes that
    # recorded the rounds' spans
    overhead = sum(s.overhead for s in ix.in_round)
    m["trace.spans_per_round"] = len(ix.in_round) / rounds
    m["trace.span_cost_us"] = 1e6 * overhead / max(len(ix.in_round), 1)
    m["trace.overhead_pct"] = 100.0 * overhead / facts["rounds_s"]
    m["trace.round_p90_ms"] = facts["round_p90_ms"]
    return m
