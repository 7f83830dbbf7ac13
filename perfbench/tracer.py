"""Outside-in tracing: wrap tempsync's public callables where the program
looks them up, and aggregate spans by (layer, parent layer).

Nothing under ``src/`` is edited.  A wrapped slot is a module attribute, a
class attribute (methods) or a dict entry; installing replaces it with a
timing wrapper and uninstalling puts the original back, so traced and
untraced passes can alternate in one process.  A slot that no longer exists
(for example a kernel deleted by a later refactor) is recorded as missing
and skipped; a layer none of whose slots exist is reported as absent.

Spans are not kept one by one: each (layer, parent) pair holds a call
count, the total time and the time covered by wrapped children, so memory
stays bounded however many million leaf calls a run makes.  Self time is
total minus children.
"""

from __future__ import annotations

import importlib
import os
import time

# layer name -> slots "module[:Attribute].name"; an Attribute that is a dict
# makes the slot one of its entries.
LAYERS = {
    "model.eval_nodes": ["tempsync.model:NetworkSystem.eval_nodes"],
    "model.schedule.sample": ["tempsync.model:AdjacencySchedule.sample"],
    "model.pair_bounds": ["tempsync.model:PairBoundSet.alpha",
                          "tempsync.model:PairBoundSet.beta"],
    "integrate.integrate": ["tempsync.scenarios.integrate", "tempsync.cli.integrate",
                            "tempsync.certificates.integrate"],
    "integrate.pairwise_errors": ["tempsync.scenarios.pairwise_errors",
                                  "tempsync.cli.pairwise_errors"],
    "integrate.to_csv": ["tempsync.integrate:Trajectory.to_csv",
                         "tempsync.integrate:ErrorSeries.to_csv"],
    "kernels.coupling_term": ["tempsync._kernels.coupling_term"],
    "kernels.delta_gamma": ["tempsync._kernels.delta_gamma"],
    "kernels.assemble_comparison": ["tempsync._kernels.assemble_comparison"],
    "kernels.rk4_linear": ["tempsync._kernels.rk4_const_linear",
                           "tempsync._kernels.rk4_sampled_linear"],
    "kernels.rk4_principal": ["tempsync._kernels.rk4_const_principal",
                              "tempsync._kernels.rk4_sampled_principal"],
    "kernels.pair_series": ["tempsync._kernels.xi_series", "tempsync._kernels.e_hat_series"],
    "certificates.comparison_solve": ["tempsync.certificates.comparison_solve"],
    "certificates.dominance_decay_check": ["tempsync.certificates.dominance_decay_check"],
    "certificates.check_sync": [
        "tempsync.certificates.check_full_sync", "tempsync.certificates.check_cluster_sync",
        "tempsync.cli.check_full_sync", "tempsync.cli.check_cluster_sync",
        "tempsync.scenarios.check_full_sync",
    ],
    "certificates.compute_mu1": ["tempsync.certificates.compute_mu1"],
    "certificates.compute_mu2": ["tempsync.certificates.compute_mu2"],
    "certificates.static_threshold": ["tempsync.certificates.static_threshold",
                                      "tempsync.cli.static_threshold"],
    "attractors.pullback_trajectory": ["tempsync.attractors.pullback_trajectory",
                                       "tempsync.cli.pullback_trajectory"],
    "attractors.coupled_comparison_check": ["tempsync.attractors.coupled_comparison_check"],
    "scenarios.run": [
        "tempsync.cli:_SCENARIOS.vdp", "tempsync.cli:_SCENARIOS.fhn",
        "tempsync.cli:_SCENARIOS.ring", "tempsync.cli:_SCENARIOS.lorenz-star",
        "tempsync.scenarios.run_vdp", "tempsync.scenarios.run_fhn_clusters",
        "tempsync.scenarios.run_ring_contrarian", "tempsync.scenarios.run_lorenz_star",
    ],
    "cli.dispatch": ["tempsync.cli.dispatch"],
}

EVALS = "model.eval_nodes"


class _Slot:
    """A place holding a callable: an attribute of a module or class, or a
    dict entry."""

    def __init__(self, owner, key):
        self.owner = owner
        self.key = key

    def get(self):
        if isinstance(self.owner, dict):
            return self.owner[self.key]
        return getattr(self.owner, self.key)

    def set(self, value):
        if isinstance(self.owner, dict):
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


def resolve(path):
    """_Slot for ``module[:Attribute].name``, or None when it does not exist."""
    head, _, key = path.rpartition(".")
    module_name, _, attr = head.partition(":")
    try:
        owner = importlib.import_module(module_name)
        if attr:
            owner = getattr(owner, attr)
        if isinstance(owner, dict):
            if key not in owner:
                return None
        elif not callable(getattr(owner, key, None)):
            return None
    except (ImportError, AttributeError):
        return None
    return _Slot(owner, key)


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats = {}        # (layer, parent layer or None) -> [calls, total_s, child_s]
        self.counters = {"steps_accepted": 0, "steps_rejected": 0, "csv_bytes": 0}
        self.missing = []      # slot paths that do not exist
        self._stack = []       # [layer, child_s] of the open spans
        self._installed = []   # (slot, original)
        self._hooks = {"integrate.integrate": self._after_integrate,
                       "integrate.to_csv": self._after_to_csv}

    # -- install / uninstall ---------------------------------------------

    def install(self):
        self.missing = []
        for layer, paths in self.layers.items():
            for path in paths:
                slot = resolve(path)
                if slot is None:
                    self.missing.append(path)
                    continue
                original = slot.get()
                slot.set(self._wrap(layer, original))
                self._installed.append((slot, original))

    def uninstall(self):
        for slot, original in reversed(self._installed):
            slot.set(original)
        self._installed = []

    def absent(self):
        """Layers none of whose slots exist."""
        return sorted(layer for layer, paths in self.layers.items()
                      if all(p in self.missing for p in paths))

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, fn):
        stack = self._stack
        stats = self.stats
        hook = self._hooks.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            evals0 = self.calls(EVALS) if hook else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((layer, parent))
                if rec is None:
                    rec = stats[(layer, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if hook:
                hook(args, kwargs, result, evals0)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_integrate(self, args, kwargs, traj, evals0):
        # RKF45 at record_stride 1 records every accepted step, and each
        # attempt (accepted or rejected) costs six RHS evaluations.
        cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
        if cfg is None or cfg.method != "rk45" or cfg.record_stride != 1:
            return
        accepted = len(traj.times) - 1
        attempts = (self.calls(EVALS) - evals0) // 6
        if attempts == 0:  # eval_nodes is absent: nothing to split
            return
        self.counters["steps_accepted"] += accepted
        self.counters["steps_rejected"] += attempts - accepted

    def _after_to_csv(self, args, kwargs, result, evals0):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.counters["csv_bytes"] += os.path.getsize(path)

    # -- read-out ----------------------------------------------------------

    def calls(self, layer):
        return sum(rec[0] for (name, _), rec in self.stats.items() if name == layer)

    def total_s(self, layer):
        return sum(rec[1] for (name, _), rec in self.stats.items() if name == layer)

    def self_s(self, layer):
        return sum(rec[1] - rec[2] for (name, _), rec in self.stats.items() if name == layer)
