"""Analysis-as-a-service: the persistent evaluation daemon.

The ROADMAP's serving-layer step: every compile/simulate/WCET/sweep
query in this repo is a pure function of ``(image content key, memory
configuration)``, which makes a long-running daemon both easy to build
and easy to make *robust* — identical requests coalesce, results
memoise, failed workers are rebuilt and the retried request returns
the same bytes it always would have.

The package splits along the robustness spine:

* :mod:`repro.serve.supervisor` — the supervised worker pool (per-task
  timeouts, retry with backoff, pool kill+rebuild on crashed or hung
  workers), refactored out of ``experiments/common.py`` so the sweep
  runner and the daemon share one hardened scheduler;
* :mod:`repro.serve.protocol` — the JSON-lines request/response
  protocol and its structured error taxonomy;
* :mod:`repro.serve.worker` — the worker-side request evaluator (the
  only place requests touch :class:`~repro.workflow.Workflow`);
* :mod:`repro.serve.daemon` — admission control (in-flight dedup,
  bounded queue with backpressure, per-request deadlines), the Unix
  socket front end with its lock-file claim, and graceful drain;
* :mod:`repro.serve.client` — the fault-tolerant client (reconnect
  with jittered backoff) used by the tests, the CLI and the load
  generator;
* :mod:`repro.serve.loadgen` — ``repro-serve-load``, the load
  generator and correctness harness (mixed cold/warm queries, every
  answer verified against direct evaluation, optional fault injection
  via the ``REPRO_FAULT_*`` environment knobs);
* :mod:`repro.serve.cli` — ``repro-serve`` (also ``repro-cc serve``).

See ``docs/serving.md`` for the protocol, error taxonomy, operational
knobs and drain semantics.
"""
