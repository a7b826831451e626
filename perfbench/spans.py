"""In-memory spans recorded around calls into forceplan's modules.

Hooks replace a module attribute (the name a caller looks up at call
time) with a wrapper that records ``(name, start, end, parent, attrs)``.
The source is never edited: the wrapper is installed for one command and
the original attribute is put back afterwards.  Spans stay in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import hashlib
import importlib
import json
import time

import numpy as np

# Span names whose totals make up the per-layer metrics.  A hook that was
# never called still reports zero.
SOLVE = "planner.solve"
SWEEP = "cli.sweep"
ESTIMATE = "robustness.estimate"
COMMAND = "cli.main"
VALIDATE = "planner.validate"
COST_FN = "planner.cost_fn"
STREAM = "planner.stream"

# Hooks every run installs: they time the command's compute calls and
# count Monte Carlo samples, a few hundred calls per command.
PROBE_HOOKS = [
    (SOLVE, "forceplan.cli", "solve"),
    (SWEEP, "forceplan.cli", "_bottle_rows"),
    (ESTIMATE, "forceplan.robustness", "success_probability"),
    (ESTIMATE, "forceplan.cli", "success_probability"),
]

# Hooks of the traced run, one per layer boundary, named by the module
# whose function is called and placed where its caller looks it up.
LAYER_HOOKS = [
    ("scenario.load", "forceplan.cli", "load_scenario"),
    ("scenario.load", "forceplan.cli", "resolve_stage"),
    ("domains.build", "forceplan.domains.bottle", "build_world"),
    ("domains.build", "forceplan.domains.bottle", "build_problem"),
    ("domains.build", "forceplan.domains.nut", "build_world"),
    ("domains.build", "forceplan.domains.nut", "build_problem"),
    ("domains.chain_cost", "forceplan.domains.bottle", "chain_cost"),
    ("domains.chain_cost", "forceplan.domains.nut", "chain_cost"),
    ("robustness.perturb", "forceplan.robustness", "perturbed_case"),
    ("stability.chain_stable", "forceplan.robustness", "chain_stable"),
    ("stability.cone", "forceplan.stability", "in_convex_cone"),
    ("spatial.transform_wrench", "forceplan.stability", "transform_wrench"),
    ("robot.jacobian", "forceplan.robot", "jacobian"),
    ("robot.ik", "forceplan.domains.scene", "ik"),
]

# (metric, unit, better) of the traced run, in report order.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("domains.build_s", "s", "lower"),
    ("domains.chain_cost_calls", "count", "lower"),
    ("domains.chain_cost_s", "s", "lower"),
    ("planner.solve_s", "s", "lower"),
    ("planner.cost_fn_calls", "count", "lower"),
    ("planner.cost_fn_s", "s", "lower"),
    ("planner.stream_calls", "count", "lower"),
    ("planner.stream_s", "s", "lower"),
    ("planner.self_s", "s", "lower"),
    ("planner.levels", "count", "lower"),
    ("planner.expansions", "count", "lower"),
    ("planner.validate_s", "s", "lower"),
    ("robustness.estimate_calls", "count", "lower"),
    ("robustness.estimate_s", "s", "lower"),
    ("robustness.samples", "count", "lower"),
    ("robustness.sample_us", "us", "lower"),
    ("robustness.perturb_calls", "count", "lower"),
    ("robustness.perturb_s", "s", "lower"),
    ("robustness.distinct_chains", "count", "lower"),
    ("robustness.useful_ratio", "ratio", "higher"),
    ("stability.chain_stable_calls", "count", "lower"),
    ("stability.chain_stable_self_s", "s", "lower"),
    ("stability.cone_calls", "count", "lower"),
    ("stability.cone_s", "s", "lower"),
    ("robot.jacobian_calls", "count", "lower"),
    ("robot.jacobian_s", "s", "lower"),
    ("robot.ik_calls", "count", "lower"),
    ("robot.ik_s", "s", "lower"),
    ("spatial.transform_wrench_calls", "count", "lower"),
    ("spatial.transform_wrench_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def content_key(obj):
    """Hashable value that equal chains, wrenches and specs share."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (str, int, float, bool, type(None), np.generic)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(content_key(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, content_key(v)) for k, v in obj.items()))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            content_key(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    raise TypeError(f"no content key for {type(obj).__name__}")


def _estimate_samples(args, kwargs):
    from forceplan.robustness import PerturbationSpec

    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    return (PerturbationSpec() if spec is None else spec).samples


class Tracer:
    """Span recorder plus the attribute patches that feed it.

    ``layers`` adds the per-layer hooks and wraps each schema's cost
    function and each stream's sampler; without it only the probe hooks
    are installed.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []

    # ---- recording -----------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, None, stack[-1], None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                rec[4] = on_result(args, kwargs, result)
            return result

        return traced

    # ---- patching ------------------------------------------------------

    def install(self):
        hooks = PROBE_HOOKS + (LAYER_HOOKS if self.layers else [])
        for name, module_name, attr in hooks:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise AttributeError(
                    f"hook {name}: {module_name} has no attribute {attr!r}"
                )
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original, self._after(name, module_name)))
            self._patches.append((module, attr, original))
        if self.layers:
            self._wrap_problem_callables()

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _after(self, name, module_name):
        if name == SOLVE:
            return lambda args, kwargs, result: {"problem": args[0], "result": result}
        if name == ESTIMATE:
            capture = module_name == "forceplan.cli"
            keyed = self.layers

            def estimate(args, kwargs, result):
                out = {"samples": _estimate_samples(args, kwargs)}
                if keyed:
                    out["key"] = hashlib.sha256(
                        repr(content_key((args, kwargs))).encode()
                    ).hexdigest()
                if capture:
                    out["call"] = (args, kwargs, result)
                return out

            return estimate
        return None

    def _wrap_problem_callables(self):
        """Route each problem through copies whose callables are wrapped.

        The solve hook receives the problem first, so it swaps in
        ``dataclasses.replace`` copies of the schemas and streams; the
        plan it returns refers to the wrapped schemas, so re-validating
        it is traced as well.
        """
        import forceplan.cli as cli

        traced_solve = cli.solve

        def solve(problem, *args, **kwargs):
            schemas = [
                s if s.cost_fn is None
                else dataclasses.replace(s, cost_fn=self.wrap(COST_FN, s.cost_fn))
                for s in problem.schemas
            ]
            streams = [
                dataclasses.replace(st, sample=self.wrap(STREAM, st.sample))
                for st in problem.streams
            ]
            return traced_solve(
                dataclasses.replace(problem, schemas=schemas, streams=streams),
                *args, **kwargs,
            )

        self._patches.append((cli, "solve", traced_solve))
        cli.solve = solve

    # ---- summaries -----------------------------------------------------

    def totals(self, root: int):
        """Per-name ``[calls, seconds, self seconds]`` under span ``root``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        inside = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
            inside[i] = i == root or (parent >= 0 and inside[parent])
        out: dict = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if not inside[i]:
                continue
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_time[i]
        return out

    def under(self, root: int, name: str):
        """Spans named ``name`` inside ``root`` (root included)."""
        inside = set()
        found = []
        for i, span in enumerate(self.spans):
            if i == root or span[3] in inside:
                inside.add(i)
                if span[0] == name:
                    found.append(span)
        return found

    def write(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def per_layer(tracer: Tracer, root: int, validate_root: int, untraced_run_s: float):
    """Per-layer metrics of one traced command under span ``root``."""
    t = tracer.totals(root)

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return t.get(name, [0, 0.0, 0.0])[1]

    def self_secs(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    solves = tracer.under(root, SOLVE)
    estimates = tracer.under(root, ESTIMATE)
    samples = sum(s[4]["samples"] for s in estimates)
    distinct = len({s[4]["key"] for s in estimates})
    run_s = secs(COMMAND)
    validate = tracer.spans[validate_root]
    values = {
        "cli.self_s": self_secs(COMMAND),
        "scenario.load_s": secs("scenario.load"),
        "domains.build_s": secs("domains.build"),
        "domains.chain_cost_calls": calls("domains.chain_cost"),
        "domains.chain_cost_s": secs("domains.chain_cost"),
        "planner.solve_s": secs(SOLVE),
        "planner.cost_fn_calls": calls(COST_FN),
        "planner.cost_fn_s": secs(COST_FN),
        "planner.stream_calls": calls(STREAM),
        "planner.stream_s": secs(STREAM),
        # Cost functions and streams are the solve span's only children,
        # so its self time is grounding plus search.
        "planner.self_s": self_secs(SOLVE),
        "planner.levels": sum(s[4]["result"].levels for s in solves),
        "planner.expansions": sum(s[4]["result"].expansions for s in solves),
        "planner.validate_s": validate[2] - validate[1],
        "robustness.estimate_calls": calls(ESTIMATE),
        "robustness.estimate_s": secs(ESTIMATE),
        "robustness.samples": samples,
        "robustness.sample_us": 1e6 * secs(ESTIMATE) / samples if samples else 0.0,
        "robustness.perturb_calls": calls("robustness.perturb"),
        "robustness.perturb_s": secs("robustness.perturb"),
        "robustness.distinct_chains": distinct,
        "robustness.useful_ratio": distinct / len(estimates) if estimates else 0.0,
        "stability.chain_stable_calls": calls("stability.chain_stable"),
        "stability.chain_stable_self_s": self_secs("stability.chain_stable"),
        "stability.cone_calls": calls("stability.cone"),
        "stability.cone_s": secs("stability.cone"),
        "robot.jacobian_calls": calls("robot.jacobian"),
        "robot.jacobian_s": secs("robot.jacobian"),
        "robot.ik_calls": calls("robot.ik"),
        "robot.ik_s": secs("robot.ik"),
        "spatial.transform_wrench_calls": calls("spatial.transform_wrench"),
        "spatial.transform_wrench_s": secs("spatial.transform_wrench"),
        "trace.overhead_ratio": run_s / untraced_run_s,
    }
    return {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}
