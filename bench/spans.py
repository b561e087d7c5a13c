"""Run-time span recorder for the traced benchmark run.

`Tracer.install` replaces public penney functions and methods with timing
wrappers in every penney module that binds them, and `uninstall` puts the
originals back; nothing under `src/` changes, and an untraced run installs
nothing. A span is (request, id, parent id, name, start ns, end ns, self ns);
self time is the span's duration minus the time its child spans cover. Hot
dunders such as `Polynomial.__mul__` only count calls, to keep the tracing
overhead small. Targets a later version of penney no longer has are skipped,
and their metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

_MODULES = ("penney", "penney.cli", "penney.patterns", "penney.polyalg", "penney.solver", "penney.oracle")

# (module, function) pairs wrapped with a span in every module binding them.
_FUNCTION_SPANS = {
    ("penney.cli", "main"): "cli.main",
    ("penney.cli", "build_parser"): "cli.parse",
    ("penney.cli", "cmd_solve"): "cli.handler",
    ("penney.cli", "cmd_simulate"): "cli.handler",
    ("penney.cli", "cmd_best_response"): "cli.handler",
    ("penney.patterns", "parse_pattern"): "patterns.parse",
    ("penney.patterns", "validate_pattern_set"): "patterns.validate",
    ("penney.solver", "correlation_matrix"): "solver.correlation_matrix",
    ("penney.solver", "solve_game"): "solver.solve_game",
    ("penney.solver", "conway_number"): "solver.conway_number",
    ("penney.solver", "winning_probabilities"): "solver.winning_probabilities",
    ("penney.solver", "response_table"): "solver.response_table",
    ("penney.oracle", "build_automaton"): "oracle.build_automaton",
    ("penney.oracle", "simulate"): "oracle.simulate",
}
_METHOD_SPANS = {
    ("PolyMatrix", "determinant"): "polyalg.determinant",
    ("RationalFunction", "limit"): "polyalg.limit",
    ("RationalFunction", "derivative"): "polyalg.derivative",
    ("RationalFunction", "series"): "polyalg.series",
}
_METHOD_COUNTS = {
    ("Polynomial", "__mul__"): "polyalg.poly_mul",
    ("Polynomial", "__rmul__"): "polyalg.poly_mul",
    ("Polynomial", "exact_div"): "polyalg.exact_div",
}

# Per-layer metrics that must repeat bit for bit between passes and runs.
EXACT = (
    "polyalg.determinant.calls",
    "polyalg.exact_div.calls",
    "polyalg.poly_mul.calls",
    "polyalg.max_coeff_bits",
    "polyalg.denominator_degree",
    "solver.conway_number.calls",
    "patterns.validate.calls",
    "patterns.validate.reject_ratio",
    "oracle.automaton_states",
    "cli.output_bytes",
)


def _coeff_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0
    )


class _ModuleProxy:
    """Stands in for a module inside penney.cli, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.reset_pass()

    def reset_pass(self) -> None:
        """Start the aggregates of a new pass over the request list."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.values: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.requests = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, observe=None):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((tracer.request, span_id, parent, name, start, end, duration - frame[1]))
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
                if failed:
                    tracer.values[name + ".raised"] += 1
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: exact size counters read from results ---------------

    def _on_determinant(self, result, args) -> None:
        bits = _coeff_bits(getattr(result, "coeffs", ()))
        self.peaks["polyalg.max_coeff_bits"] = max(self.peaks["polyalg.max_coeff_bits"], bits)

    def _on_series(self, result, args) -> None:
        self.values["polyalg.series.coeffs"] += len(result)
        bits = _coeff_bits(result)
        self.peaks["polyalg.max_coeff_bits"] = max(self.peaks["polyalg.max_coeff_bits"], bits)

    def _on_solve_game(self, result, args) -> None:
        for pgf in getattr(result, "pgfs", ()):
            degree = pgf.denom.degree
            self.peaks["polyalg.denominator_degree"] = max(
                self.peaks["polyalg.denominator_degree"], degree if degree >= 0 else 0
            )

    def _on_response_table(self, result, args) -> None:
        if len(args) >= 3:
            _, length, model = args[:3]
            self.values["solver.response_table.candidates"] += len(model.symbols) ** length

    def _on_build_automaton(self, result, args) -> None:
        self.values["oracle.automaton_states"] += result.state_count

    def _on_simulate(self, result, args) -> None:
        self.values["oracle.simulate.games"] += result.trials
        self.values["oracle.simulate.tosses"] += result.total_tosses

    def _on_build_parser(self, parser, args) -> None:
        parser.parse_args = self._span("cli.parse", parser.parse_args)

    # -- install / uninstall --------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        observers = {
            "polyalg.determinant": self._on_determinant,
            "polyalg.series": self._on_series,
            "solver.solve_game": self._on_solve_game,
            "solver.response_table": self._on_response_table,
            "oracle.build_automaton": self._on_build_automaton,
            "oracle.simulate": self._on_simulate,
            "cli.parse": self._on_build_parser,
        }
        for (home, attr), name in _FUNCTION_SPANS.items():
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            wrapper = self._span(name, original, observers.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapper)
        polyalg = importlib.import_module("penney.polyalg")
        for (cls_name, attr), name in {**_METHOD_SPANS, **_METHOD_COUNTS}.items():
            cls = getattr(polyalg, cls_name, None)
            if cls is None or attr not in cls.__dict__:
                continue
            original = cls.__dict__[attr]
            if (cls_name, attr) in _METHOD_COUNTS:
                self._set(cls, attr, self._count(name, original))
            else:
                self._set(cls, attr, self._span(name, original, observers.get(name)))
        cli = importlib.import_module("penney.cli")
        real_json = cli.json
        self._set(cli, "json", _ModuleProxy(real_json, dumps=self._span("cli.dumps", real_json.dumps)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------

    def pass_metrics(self, output_bytes: int) -> dict:
        """Per-layer metrics of the pass since `reset_pass`.

        Counts cover the whole pass and are exact; times are milliseconds
        per request (microseconds per candidate for response_table); rates
        divide the work a layer did by the time it was busy.
        """
        per_request = max(self.requests, 1) * 1e6

        def ms(name, self_time=False):
            return (self.self_ns if self_time else self.total_ns)[name] / per_request

        def rate(amount, name):
            busy = self.total_ns[name]
            return self.values[amount] * 1e9 / busy if busy else 0.0

        validate_calls = self.calls["patterns.validate"]
        candidates = self.values["solver.response_table.candidates"]
        return {
            "polyalg.determinant.calls": self.calls["polyalg.determinant"],
            "polyalg.determinant.ms": ms("polyalg.determinant"),
            "polyalg.exact_div.calls": self.calls["polyalg.exact_div"],
            "polyalg.poly_mul.calls": self.calls["polyalg.poly_mul"],
            "polyalg.max_coeff_bits": self.peaks["polyalg.max_coeff_bits"],
            "polyalg.denominator_degree": self.peaks["polyalg.denominator_degree"],
            "polyalg.limit.ms": ms("polyalg.limit"),
            "polyalg.derivative.ms": ms("polyalg.derivative"),
            "polyalg.series.ms": ms("polyalg.series"),
            "polyalg.series.coeffs_per_s": rate("polyalg.series.coeffs", "polyalg.series"),
            "solver.correlation_matrix.ms": ms("solver.correlation_matrix"),
            "solver.solve_game.ms": ms("solver.solve_game", self_time=True),
            "solver.conway_number.calls": self.calls["solver.conway_number"],
            "solver.conway_number.ms": ms("solver.conway_number"),
            "solver.winning_probabilities.ms": ms("solver.winning_probabilities", self_time=True),
            "solver.response_table.us_per_candidate": (
                self.total_ns["solver.response_table"] / 1e3 / candidates if candidates else 0.0
            ),
            "patterns.validate.calls": validate_calls,
            "patterns.validate.ms": ms("patterns.validate"),
            "patterns.validate.reject_ratio": (
                self.values["patterns.validate.raised"] / validate_calls if validate_calls else 0.0
            ),
            "patterns.parse.ms": ms("patterns.parse"),
            "oracle.build_automaton.ms": ms("oracle.build_automaton"),
            "oracle.automaton_states": self.values["oracle.automaton_states"],
            "oracle.simulate.games_per_s": rate("oracle.simulate.games", "oracle.simulate"),
            "oracle.simulate.tosses_per_s": rate("oracle.simulate.tosses", "oracle.simulate"),
            "cli.parse.ms": ms("cli.parse"),
            "cli.format.ms": sum(
                ms(name, self_time=True) for name in ("cli.main", "cli.handler", "cli.dumps")
            ),
            "cli.output_bytes": output_bytes,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: request, id, parent, name, start, end, self (ns)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")
