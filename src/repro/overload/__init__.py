"""Overload control: deadlines, admission, retry budgets, backpressure.

The component-failure layer (``repro.faults``) protects the stack from
things that *break*; this package protects it from too much of a good
thing — offered load past capacity.  Four mechanisms, threaded through
the request path end to end (see DESIGN.md, "Overload control"):

* **deadline propagation** — every request carries an absolute deadline;
  stations shed expired work on dequeue instead of serving it;
* **admission control** — per-station CoDel controllers at fleet ingress
  (:mod:`repro.overload.codel`) shed or brown out arriving work when
  sojourn times stand above target;
* **bounded queues + backpressure** — depth-limited station queues; full
  queues push back to the scheduler, which re-routes or rejects;
* **retry budgets** — shared token buckets (:mod:`repro.overload.retry`)
  cap aggregate retry traffic so retry storms cannot amplify overload.

:mod:`repro.overload.sweep` drives the goodput-vs-offered-load sweep
behind ``BENCH_overload.json``; run it with
``python -m repro matrix --only overload [--quick|--check|--update]``.
"""

from repro.overload.codel import CoDelController
from repro.overload.policy import OverloadConfig, OverloadPolicy
from repro.overload.retry import RetryBudget

__all__ = [
    "CoDelController",
    "OverloadConfig",
    "OverloadPolicy",
    "RetryBudget",
]
