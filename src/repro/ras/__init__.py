"""Memory RAS and end-to-end integrity: the ``ras`` matrix target's tier.

The mechanisms live where the data lives — :mod:`repro.dram.ras` for the
latent-flip/patrol-scrub/poison engine, :mod:`repro.core.smartdimm` for the
DSA SDC personality, :mod:`repro.cluster.chaos` for fleet SDC storms.  This
package holds the cross-cutting pieces: the per-lane quarantine controller
(:mod:`repro.ras.quarantine`) and the scrub-rate x SDC-rate sweep
(:mod:`repro.ras.sweep`) behind
``python -m repro matrix --only ras [--quick|--check|--update]``.
"""
