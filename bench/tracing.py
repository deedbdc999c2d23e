"""Spans around the public functions of each physproj layer.

``install`` replaces each traced function where its caller looks it up
(a module attribute or a class attribute) with a wrapper that times the
call and records it as a span.  Spans nest through a stack, so every span
knows how much of its duration its children covered; its self time is the
rest.  Spans are aggregated per name in memory (a spring-many run makes
about a million of them) and written out once, after the run.

Span names are ``<layer>.<what>``; the layer is the part before the first
dot and is one of the five physproj layers: nn, projector, constraints,
springmass, pipeline.
"""

from __future__ import annotations

import collections
import os
import time

from physproj.errors import ProjectionError
from physproj.projector import CONVERGED

LAYERS = ("nn", "projector", "constraints", "springmass", "pipeline")
ROOT = "pipeline.run_experiment"

# projector points are bucketed by their total iteration count
# (restoration plus Newton), lowest bound first
ITERATION_BUCKETS = (("it0", 0), ("it1", 1), ("it2-4", 2), ("it5-15", 5), ("it16up", 16))


def bucket_of(iterations: int) -> str:
    return next(label for label, low in reversed(ITERATION_BUCKETS) if iterations >= low)


class Tracer:
    """Per-name span totals plus the counts the layer metrics need."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child time covered, per open span
        self.calls = collections.Counter()
        self.inclusive = collections.Counter()
        self.self_time = collections.Counter()
        self.counts = collections.Counter()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, seconds, args)``
        runs once the span is closed, ``result`` being the exception on failure."""
        stack = self._stack
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                inclusive[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if after is not None:
                    after(outcome, elapsed, args)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- hooks that turn return values into counts --------------------------

    def _after_train(self, outcome, seconds, args):
        if isinstance(outcome, tuple):
            self.counts["nn.epochs"] += outcome[1].n_epochs()

    def _after_point(self, outcome, seconds, args):
        if isinstance(outcome, BaseException):
            iterations, ok = 0, False
        else:
            iterations, ok = outcome.iterations, outcome.status == CONVERGED
        bucket = bucket_of(iterations)
        self.counts["projector.points"] += 1
        self.counts["projector.iterations"] += iterations
        self.counts["projector.points." + bucket] += 1
        self.counts["projector.s." + bucket] += seconds
        if not ok:
            self.counts["projector.failed"] += 1

    def _after_rollout(self, outcome, seconds, args):
        if isinstance(outcome, ProjectionError):
            self.counts["springmass.rollout_steps"] += outcome.step or 0
        elif not isinstance(outcome, BaseException):
            self.counts["springmass.rollout_steps"] += len(outcome.states) - 1

    def _after_csv(self, outcome, seconds, args):
        path = args[0]
        if os.path.isdir(path):  # write_manifest takes the directory
            path = os.path.join(path, "manifest.txt")
        self.counts["pipeline.csv_bytes"] += os.path.getsize(path)

    def install(self):
        """Wrap every traced function of the five layers; returns the root."""
        from physproj import projector, springmass
        from physproj.constraints import sets, transform
        from physproj.nn import losses, training
        from physproj.pipeline import experiments

        # nn: experiments imports train and forward by name; training imports
        # forward_cached, backward and adam_step by name
        self.patch(experiments, "train", "nn.train", self._after_train)
        self.patch(experiments, "forward", "nn.forward")
        self.patch(training, "forward_cached", "nn.forward_cached")
        self.patch(training, "backward", "nn.backward")
        self.patch(training, "adam_step", "nn.adam_step")
        for term in (losses.SpringEnergyTerm, losses.LtpResidualTerm):
            self.patch(term, "loss_and_output_grad", "nn.physics_term")

        # projector: experiments imports project and project_batch by name;
        # project_batch calls the module's own project for every point
        self.patch(experiments, "project_batch", "projector.project_batch")
        self.patch(experiments, "project", "projector.project", self._after_point)
        self.patch(projector, "project", "projector.project", self._after_point)

        # constraints: the batched public methods, every class's own
        # lagrangian_hessian, and the transforms wherever they are looked up
        # at call time (experiments by name, springmass and losses through
        # the transform module)
        self.patch(sets.ConstraintSet, "residual", "constraints.residual")
        self.patch(sets.ConstraintSet, "jacobian", "constraints.jacobian")
        for cls in (sets.ConstraintSet, sets.EnergyConstraint, sets.LtpConstraints):
            if "lagrangian_hessian" in vars(cls):
                self.patch(cls, "lagrangian_hessian", "constraints.hessian")
        for fn in ("normalize", "denormalize"):
            self.patch(experiments, fn, "constraints.transform")
            self.patch(transform, fn, "constraints.transform")

        # springmass: experiments calls these through the module
        self.patch(springmass, "generate_dataset", "springmass.dataset")
        self.patch(springmass, "true_trajectory", "springmass.truth")
        self.patch(springmass, "rollout", "springmass.rollout", self._after_rollout)

        # pipeline: CSV and manifest writers imported by name, and the root
        for fn in ("write_csv", "write_manifest", "write_trajectory_csv"):
            self.patch(experiments, fn, "pipeline.csv", self._after_csv)
        return self.wrap(ROOT, experiments.run_experiment)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values; a layer never called reports 0."""
        c, t, n = self.counts, self.inclusive, self.calls
        steps = n["nn.adam_step"]
        points = c["projector.points"]
        m = {
            "nn.train_s": t["nn.train"],
            "nn.steps": steps,
            "nn.step_us": 1e6 * t["nn.train"] / steps if steps else 0.0,
            "nn.epochs": c["nn.epochs"],
            "nn.forward_cached_s": t["nn.forward_cached"],
            "nn.backward_s": t["nn.backward"],
            "nn.adam_step_s": t["nn.adam_step"],
            "nn.physics_term_s": t["nn.physics_term"],
            "nn.forward_calls": n["nn.forward"],
            "nn.forward_s": t["nn.forward"],
            "projector.points": points,
            "projector.s": t["projector.project"],
            "projector.us_per_point": 1e6 * t["projector.project"] / points if points else 0.0,
            "projector.iterations": c["projector.iterations"],
            "projector.failed": c["projector.failed"],
        }
        for label, _ in ITERATION_BUCKETS:
            m["projector.points." + label] = c["projector.points." + label]
            m["projector.s." + label] = c["projector.s." + label]
        for kind in ("residual", "jacobian", "hessian"):
            m[f"constraints.{kind}_calls"] = n["constraints." + kind]
            m[f"constraints.{kind}_s"] = t["constraints." + kind]
        m["constraints.transform_s"] = t["constraints.transform"]
        m["springmass.rollout_s"] = t["springmass.rollout"]
        m["springmass.rollout_steps"] = c["springmass.rollout_steps"]
        m["springmass.truth_s"] = t["springmass.truth"]
        m["springmass.dataset_s"] = t["springmass.dataset"]
        m["pipeline.csv_s"] = t["pipeline.csv"]
        m["pipeline.csv_bytes"] = c["pipeline.csv_bytes"]
        m["pipeline.self_s"] = self.self_time[ROOT]
        for layer in LAYERS:
            m[f"layer.{layer}_s"] = 0.0
        for name, seconds in self.self_time.items():
            m[f"layer.{name.split('.', 1)[0]}_s"] += seconds
        return m

    def spans(self) -> list[dict]:
        return [
            {"name": name, "calls": self.calls[name], "inclusive_s": self.inclusive[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        ]
