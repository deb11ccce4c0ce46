"""Fig. 3: HTTPS memory-bandwidth utilisation normalised to HTTP.

Paper result (Sec. III, Observation 3): as concurrent connections grow, the
HTTPS server's memory traffic rises to ~2.5x an HTTP server doing the same
transfers — the cache-thrashing cost of on-CPU ULP processing.
"""

from repro.sim.server import Placement, ServerModel, Ulp, WorkloadSpec

CONNECTIONS = [64, 128, 256, 512, 1024, 2048]
MESSAGE = 8192
SWEEP_KWARGS = dict(message_bytes=MESSAGE, background_pressure_bytes=2e6)
MISS_CURVE_K = 0.6  # low-background sweep configuration (see DESIGN.md)


def _ratio(connections):
    http = ServerModel(
        WorkloadSpec(ulp=Ulp.NONE, placement=Placement.CPU, connections=connections, **SWEEP_KWARGS),
        miss_curve_k=MISS_CURVE_K,
    ).solve()
    https = ServerModel(
        WorkloadSpec(ulp=Ulp.TLS, placement=Placement.CPU, connections=connections, **SWEEP_KWARGS),
        miss_curve_k=MISS_CURVE_K,
    ).solve()
    return https.membw_bytes_per_request / http.membw_bytes_per_request


def test_fig03_https_membw_ratio():
    ratios = [(c, _ratio(c)) for c in CONNECTIONS]
    lines = ["Fig. 3 — HTTPS memory bandwidth per request, normalised to HTTP",
             f"{'connections':>12} {'HTTPS/HTTP':>11}"]
    for connections, ratio in ratios:
        lines.append(f"{connections:>12d} {ratio:>11.2f}")
    print("\n" + "\n".join(lines))

    values = [ratio for _, ratio in ratios]
    # Rising with connection count until both curves saturate; a small
    # plateau/dip at the top is tolerated (the miss curves flatten at 1).
    for left, right in zip(values, values[1:]):
        assert right >= left - 0.08
    assert values[0] < min(values[3:])  # low-conn clearly below high-conn
    # Low-concurrency overhead is modest; high concurrency reaches ~2.5x.
    assert values[0] < 2.2
    assert 2.2 < max(values) < 3.2
