"""Spans and counts recorded around the public functions taperfwm's modules bind.

The benchmark wraps, from outside the program, every ``taperfwm`` function
that ``taperfwm.cli`` binds at import, the ``neff_table``,
``batch_field_matrix`` and ``solve_mode`` names that ``taperfwm.biphoton``
binds, ``taperfwm.dispersion.solve_mode`` and ``ModeBank.table``.  Each call
records a span (name, start, end, parent) and, for some names, a count
taken from its arguments or result.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import time

# Names bound in taperfwm.cli whose spans are grouped under one layer name.
_GROUPS = {
    "write_tags_binary": "tags.write_tags",
    "write_tags_text": "tags.write_tags",
    "write_coincidence_csv": "tags.write_results",
    "write_coincidence_json": "tags.write_results",
    "write_g2_csv": "tags.write_results",
    "write_g2_json": "tags.write_results",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self.simulations: list = []  # SimulationConfig of each simulate_tags call
        self._open: list[int] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    # -- derived figures ----------------------------------------------------

    def _durations(self, name):
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def calls(self, name: str) -> int:
        return len(self._durations(name))

    def total(self, name: str) -> float:
        return float(sum(self._durations(name)))

    def self_time(self, name: str) -> float:
        """Span time of ``name`` minus the time of the spans it directly encloses."""
        own = {i for i, span in enumerate(self.spans) if span[0] == name}
        covered = sum(end - start for _, start, end, parent in self.spans if parent in own)
        return self.total(name) - float(covered)

    def calls_with_child(self, name: str, child: str) -> int:
        parents = {parent for span_name, _, _, parent in self.spans if span_name == child}
        return sum(1 for i, span in enumerate(self.spans) if span[0] == name and i in parents)


# -- counts taken at the wrapped boundaries -------------------------------------


def _file_bytes(tracer, key, path):
    tracer.add(key, os.path.getsize(path))


_COUNTS = {
    "segment": lambda t, a, r: t.add("profile.segment.distinct_diameters",
                                     len(set(r.diameters.tolist()))),
    "write_matrix_csv": lambda t, a, r: _file_bytes(t, "biphoton.write_matrix_csv.bytes", a[0]),
    "write_tags_binary": lambda t, a, r: _file_bytes(t, "tags.write_tags.bytes", a[1]),
    "write_tags_text": lambda t, a, r: _file_bytes(t, "tags.write_tags.bytes", a[1]),
    "simulate_tags": lambda t, a, r: (t.add("tags.simulate_tags.records", len(r)),
                                      t.simulations.append((a[0], len(r)))),
    "parse_tags": lambda t, a, r: t.add("tags.parse_tags.records", len(r)),
    "coincidence_histogram": lambda t, a, r: t.add("tags.coincidence_histogram.pairs",
                                                   int(r.counts.sum())),
    "heralded_g2": lambda t, a, r: t.add("tags.heralded_g2.heralds", r.n_heralds),
}


def install(tracer: Tracer):
    """Wrap the program's public names; return the traced ``taperfwm.cli.main``."""
    import taperfwm.biphoton as biphoton
    import taperfwm.cli as cli
    import taperfwm.dispersion as dispersion

    for attr, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("taperfwm.") and module != cli.__name__:
            name = _GROUPS.get(attr, f"{module.split('.')[1]}.{attr}")
            tracer.patch(cli, attr, name, _COUNTS.get(attr))
    for attr in ("neff_table", "batch_field_matrix", "solve_mode"):
        if hasattr(biphoton, attr):
            tracer.patch(biphoton, attr, f"dispersion.{attr}")
    tracer.patch(dispersion, "solve_mode", "dispersion.solve_mode")
    tracer.patch(biphoton.ModeBank, "table", "biphoton.modebank.table")
    return tracer.wrap("cli.main", cli.main)


def dead_time_removed(tracer: Tracer) -> int:
    """Clicks that dead time removed: the same seed simulated without dead
    time, minus the records kept.  Called after the timed commands."""
    from taperfwm.tags import simulate_tags

    return sum(len(simulate_tags(dataclasses.replace(config, dead_time=0.0))) - kept
               for config, kept in tracer.simulations)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric that a traced round yields (setup and overhead
    figures are added by the caller)."""
    table_calls = tracer.calls("biphoton.modebank.table")
    table_misses = tracer.calls_with_child("biphoton.modebank.table", "dispersion.neff_table")
    out = {
        "profile.segment.distinct_diameters": tracer.counts.get("profile.segment.distinct_diameters", 0),
        "dispersion.neff_table.calls": tracer.calls("dispersion.neff_table"),
        "dispersion.neff_table.s": tracer.total("dispersion.neff_table"),
        "dispersion.batch_field_matrix.calls": tracer.calls("dispersion.batch_field_matrix"),
        "dispersion.batch_field_matrix.s": tracer.total("dispersion.batch_field_matrix"),
        "dispersion.solve_mode.calls": tracer.calls("dispersion.solve_mode"),
        "biphoton.modebank.table.calls": table_calls,
        "biphoton.modebank.table.hit_ratio":
            (table_calls - table_misses) / table_calls if table_calls else 0.0,
        "biphoton.phase_matching.s": tracer.total("biphoton.phase_matching"),
        "biphoton.phase_matching.self_s": tracer.self_time("biphoton.phase_matching"),
        "biphoton.pump_function.s": tracer.total("biphoton.pump_function"),
        "biphoton.schmidt_analysis.s": tracer.total("biphoton.schmidt_analysis"),
        "biphoton.write_matrix_csv.s": tracer.total("biphoton.write_matrix_csv"),
        "biphoton.write_matrix_csv.bytes": tracer.counts.get("biphoton.write_matrix_csv.bytes", 0),
        "biphoton.write_marginals_csv.s": tracer.total("biphoton.write_marginals_csv"),
        "tags.simulate_tags.s": tracer.total("tags.simulate_tags"),
        "tags.simulate_tags.records": tracer.counts.get("tags.simulate_tags.records", 0),
        "tags.write_tags.s": tracer.total("tags.write_tags"),
        "tags.write_tags.bytes": tracer.counts.get("tags.write_tags.bytes", 0),
        "tags.parse_tags.s": tracer.total("tags.parse_tags"),
        "tags.parse_tags.records": tracer.counts.get("tags.parse_tags.records", 0),
        "tags.coincidence_histogram.s": tracer.total("tags.coincidence_histogram"),
        "tags.coincidence_histogram.pairs": tracer.counts.get("tags.coincidence_histogram.pairs", 0),
        "tags.heralded_g2.s": tracer.total("tags.heralded_g2"),
        "tags.heralded_g2.heralds": tracer.counts.get("tags.heralded_g2.heralds", 0),
        "tags.write_results.s": tracer.total("tags.write_results"),
        "cli.main.s": tracer.total("cli.main"),
        "cli.self_s": tracer.self_time("cli.main"),
    }
    return out
