"""Multi-tenant serving, narrated.

    python examples/serve_demo.py

One :class:`repro.serve.Server` hosts several tenants running the same
hot function.  The first tenant pays the compile pauses and publishes the
stable forms into the fleet's shared code cache; every tenant that joins
afterwards rebinds those forms instead of re-running the pipeline, so its
cold start is mostly execution.  A final chaos-injected tenant shows the
isolation half of the design: its speculation failures retire only its
own installed versions — the other tenants' dispatch behaviour is
bit-identical to what an isolated VM would have done.

Adding ``serve=False`` to the ``Config`` in ``main`` degrades the server to
fully isolated per-tenant VMs (the baseline the sharing layer is measured
against): every tenant then pays its own compiles.
"""

import time

from repro import Config
from repro.serve import Server

SRC = """
score <- function(data, len) {
  total <- 0
  for (i in 1:len) total <- total + data[[i]]
  total / len
}
"""

N = 300
SETUP = ("xs <- numeric(%d)\nfor (i in 1:%d) xs[[i]] <- i * 1.5" % (N, N),
         "n <- %dL" % N)
FLIP = "ys <- integer(%d)\nfor (i in 1:%d) ys[[i]] <- i" % (N, N)


def warm_tenant(srv: Server, tenant: str, config: Config = None) -> float:
    """Run one tenant's cold start; returns its wall-clock seconds."""
    if config is not None:
        srv.session(tenant, config=config)
    t0 = time.perf_counter()
    srv.eval(tenant, SRC)
    for stmt in SETUP:
        srv.eval(tenant, stmt)
    for _ in range(4):
        srv.eval(tenant, "score(xs, n)")
    srv.eval(tenant, FLIP)
    srv.eval(tenant, "score(ys, n)")  # phase flip -> deoptless continuation
    return time.perf_counter() - t0


def main() -> None:
    cfg = lambda: Config(enable_deoptless=True, compile_threshold=2,
                         codecache=True)
    with Server(config_factory=cfg) as srv:
        mode = "shared fleet" if srv.serve_enabled else \
            "isolated VMs (Config(serve=False))"
        print("serving mode: %s" % mode)
        print()
        print("%-10s %10s %12s %12s %9s" % (
            "tenant", "cold (ms)", "compiled", "saved", "shared"))
        for tenant in ("alice", "bob", "carol", "dave"):
            secs = warm_tenant(srv, tenant)
            snap = srv.sessions[tenant].vm.state.snapshot()
            print("%-10s %10.1f %12d %12d %9d" % (
                tenant, secs * 1e3, snap["compiled_instrs"],
                snap["codecache_instrs_saved"], snap["shared_cache_hits"]))

        # a misbehaving tenant: chaos-injected speculation failures.  Its
        # deopts retire its own versions only; nothing it does shows up in
        # the other tenants' engine counters.
        warm_tenant(srv, "mallory",
                    config=Config(enable_deoptless=True, compile_threshold=2,
                                  codecache=True, chaos_rate=0.2,
                                  chaos_seed=7))
        chaos = srv.sessions["mallory"].vm.state.snapshot()
        print("%-10s %10s %12d %12d %9d   (chaos: %d deopts, kept to itself)"
              % ("mallory", "-", chaos["compiled_instrs"],
                 chaos["codecache_instrs_saved"], chaos["shared_cache_hits"],
                 chaos["deopts"]))

        st = srv.stats()
        print()
        if srv.serve_enabled:
            sc = st["shared_cache"]
            print("shared cache: %d entries, %d hits (%d cross-tenant)"
                  % (len(srv.shared), sc["hits"], sc["cross_tenant_hits"]))
        print("fleet pipeline work: compiled %d instrs, %d served from caches"
              % (st["compiled_instrs"], st["codecache_instrs_saved"]))
        print("request latency: p50 %.2f ms / p99 %.2f ms over %d requests"
              % (st["latency"]["p50_ms"], st["latency"]["p99_ms"],
                 st["requests"]))


if __name__ == "__main__":
    main()
