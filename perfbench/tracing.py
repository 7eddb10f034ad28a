"""Spans and counters recorded around the public functions of fluxdsm.

The tracer patches module attributes, so the program itself is not
changed. Calls that are made once per item or per stage get a span
(name, start, end, parent). Hot inner calls, made thousands of times
per item, only bump a call counter and a summed time, and that time is
charged to the enclosing span as child time. A span's self time is its
duration minus the time of its children.
"""

import functools
import os
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "attrs")

    def __init__(self, name, parent, attrs):
        self.name = name
        self.parent = parent
        self.attrs = attrs or {}
        self.child = 0.0
        self.end = None
        self.start = perf_counter()

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = {}  # name -> [calls, seconds]
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------

    def _open(self, name, attrs=None):
        span = Span(name, self._stack[-1] if self._stack else None, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.duration

    def _charge(self, name, seconds, calls):
        entry = self.hot.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds
        if self._stack:
            self._stack[-1].child += seconds

    def take(self):
        """Return and clear what was recorded since the last take()."""
        spans, hot = self.spans, self.hot
        self.spans, self.hot = [], {}
        return spans, hot

    # -- wrappers -----------------------------------------------------

    def span_call(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def hot_call(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge(name, perf_counter() - t0, 1)
        return wrapper

    def hot_generator(self, name, fn):
        """Count the items a generator yields and sum the time spent
        producing them, excluding the consumer's time between items."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self._charge(name, perf_counter() - t0, 0)
                    return
                except BaseException:
                    self._charge(name, perf_counter() - t0, 0)
                    raise
                self._charge(name, perf_counter() - t0, 1)
                yield item
        return wrapper

    def csv_writer(self, fn):
        """write_csv(path, header, rows) with row and byte counts."""
        @functools.wraps(fn)
        def wrapper(path, header, rows):
            count = [0]

            def counted():
                for row in rows:
                    count[0] += 1
                    yield row

            span = self._open("scenario.write_csv")
            try:
                return fn(path, header, counted())
            finally:
                self._close(span)
                span.attrs = {"rows": count[0],
                              "bytes": (os.path.getsize(path)
                                        if os.path.exists(path) else 0)}
        return wrapper

    # -- installation -------------------------------------------------

    def patch(self, wrapper, *modules):
        name = wrapper.__name__
        for module in modules:
            self._patches.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)

    def install(self):
        """Patch every layer boundary. fluxdsm.scenario (and
        fluxdsm.modulator) bind the functions they call by name, so
        their namespaces are patched along with the defining module."""
        from fluxdsm import (comparator, electrodynamics, fluxtrap,
                             junctions, modulator, noise, scenario, sectext)

        self.patch(self.span_call("sectext.parse", sectext.parse_sections),
                   sectext, scenario)
        self.patch(self.span_call("scenario.load", scenario.load_scenario),
                   scenario)
        self.patch(self.span_call("scenario.run", scenario.run_scenario),
                   scenario)
        self.patch(self.csv_writer(scenario.write_csv), scenario)
        self.patch(self.span_call(
            "junctions.nis", junctions.nis_current,
            lambda cfg, voltage, *a, **k: {"points": int(np.size(voltage))}),
            junctions, scenario)
        self.patch(self.hot_call("junctions.btk",
                                 junctions.btk_probabilities), junctions)
        self.patch(self.hot_call("junctions.sns", junctions.sns_current),
                   junctions, scenario)
        self.patch(self.span_call(
            "modulator.run", modulator.run_modulator,
            lambda cfg, u, *a, **k: {"backend": cfg.backend,
                                     "samples": int(np.size(u))}),
            modulator, scenario)
        for fn in (modulator.output_power_spectrum, modulator.sndr_db,
                   modulator.dc_tracking_mean):
            self.patch(self.span_call("modulator.analysis", fn),
                       modulator, scenario)
        self.patch(self.span_call(
            "noise.synth", noise.synth_flicker_series,
            lambda model, n, fs, method="telegraph": {"samples": int(n),
                                                      "method": method}),
            noise, modulator, scenario)
        self.patch(self.hot_generator("fluxtrap.sequence",
                                      fluxtrap.iterate_sequence),
                   fluxtrap, scenario)
        self.patch(self.span_call("fluxtrap.load_schedule",
                                  fluxtrap.load_schedule), fluxtrap, scenario)
        self.patch(self.hot_call("comparator.quantize", comparator.quantize),
                   comparator, scenario)
        for fn in (electrodynamics.normal_slab_profile,
                   electrodynamics.super_slab_profile):
            self.patch(self.span_call(
                "electrodynamics.profile", fn,
                lambda cfg, x, *a, **k: {"points": int(np.size(x))}),
                electrodynamics, scenario)

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def _per(seconds, count, scale):
    return seconds / count * scale if count else 0.0


def layer_counts(spans, hot):
    """Work counts of one pass; they depend only on the inputs."""
    def total(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name)

    def samples(backend):
        return sum(s.attrs["samples"] for s in spans
                   if s.name == "modulator.run"
                   and s.attrs["backend"] == backend)

    return {
        "scenario.csv_rows": total("scenario.write_csv", "rows"),
        "scenario.csv_bytes": total("scenario.write_csv", "bytes"),
        "junctions.nis_points": total("junctions.nis", "points"),
        "junctions.btk_calls": hot.get("junctions.btk", [0, 0.0])[0],
        "modulator.ideal_samples": samples("ideal"),
        "modulator.device_samples": samples("flux-device"),
        "noise.samples": total("noise.synth", "samples"),
        "fluxtrap.steps": hot.get("fluxtrap.sequence", [0, 0.0])[0],
        "comparator.quantize_calls":
            hot.get("comparator.quantize", [0, 0.0])[0],
        "electrodynamics.profile_points":
            total("electrodynamics.profile", "points"),
    }


def layer_times(spans, hot):
    """Times of one pass, in the unit each metric name states."""
    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def busy(name):
        return sum(durations(name))

    def hot_time(name):
        return hot.get(name, [0, 0.0])[1]

    counts = layer_counts(spans, hot)
    out = {
        "sectext.parse_ms": _median(durations("sectext.parse")) * 1e3,
        "scenario.load_ms": _median(durations("scenario.load")) * 1e3,
        "scenario.self_ms": _median([s.self_time for s in spans
                                     if s.name == "scenario.run"]) * 1e3,
        "scenario.write_s": busy("scenario.write_csv"),
        "junctions.nis_s": busy("junctions.nis"),
        "junctions.sns_s": hot_time("junctions.sns"),
        "modulator.analysis_s": busy("modulator.analysis"),
        "noise.synth_s": busy("noise.synth"),
        "fluxtrap.sequence_s": hot_time("fluxtrap.sequence"),
        "electrodynamics.profile_s": busy("electrodynamics.profile"),
    }
    out["scenario.write_us_per_row"] = _per(
        out["scenario.write_s"], counts["scenario.csv_rows"], 1e6)
    out["junctions.nis_ms_per_point"] = _per(
        out["junctions.nis_s"], counts["junctions.nis_points"], 1e3)
    for backend, key in (("ideal", "ideal"), ("flux-device", "device")):
        loop = sum(s.self_time for s in spans if s.name == "modulator.run"
                   and s.attrs["backend"] == backend)
        out[f"modulator.{key}_ns_per_sample"] = _per(
            loop, counts[f"modulator.{key}_samples"], 1e9)
    telegraph = [s for s in spans if s.name == "noise.synth"
                 and s.attrs["method"] == "telegraph"]
    out["noise.telegraph_ns_per_sample"] = _per(
        sum(s.duration for s in telegraph),
        sum(s.attrs["samples"] for s in telegraph), 1e9)
    out["fluxtrap.us_per_step"] = _per(
        out["fluxtrap.sequence_s"], counts["fluxtrap.steps"], 1e6)
    out["comparator.quantize_ns_per_call"] = _per(
        hot_time("comparator.quantize"),
        counts["comparator.quantize_calls"], 1e9)
    return out


def span_summary(spans, hot):
    """One line per span name and hot counter: calls, total and self s."""
    rows = {}
    for s in spans:
        entry = rows.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.duration
        entry[2] += s.self_time
    lines = [f"span {name}: calls={n} total_s={t:.6f} self_s={st:.6f}"
             for name, (n, t, st) in sorted(rows.items())]
    lines += [f"counter {name}: calls={n} total_s={t:.6f}"
              for name, (n, t) in sorted(hot.items())]
    return lines
