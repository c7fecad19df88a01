"""The paper's running example, narrated (Listing 1 + Figure 4).

    python examples/deoptless_demo.py

Runs the naive vector sum over four phases — integer, float, complex, float
— side by side under normal deoptimization and under deoptless, printing
per-iteration times and the VM events that explain them.
"""

import time

from repro import Config, RVM, from_r

SUM = """
sum <- function() {
  total <- 0
  for (i in 1:length) total <- total + data[[i]]
  total
}
"""

N = 4000

PHASES = [
    ("integer", "data <- integer(%d)\nfor (i in 1:%d) data[[i]] <- i" % (N, N)),
    ("float", "data <- numeric(%d)\nfor (i in 1:%d) data[[i]] <- i * 1.5" % (N, N)),
    ("complex", "data <- complex(%d)\nfor (i in 1:%d) data[[i]] <- complex(i * 1.0, 1.0)" % (N, N)),
    ("float again", "data <- numeric(%d)\nfor (i in 1:%d) data[[i]] <- i * 1.5" % (N, N)),
]


def run(deoptless: bool):
    vm = RVM(Config(enable_deoptless=deoptless))
    vm.eval(SUM)
    vm.eval("length <- %dL" % N)
    rows = []
    seen_events = 0
    for phase, setup in PHASES:
        vm.eval(setup)
        for it in range(5):
            t0 = time.perf_counter()
            vm.eval("sum()")
            dt = time.perf_counter() - t0
            new = vm.state.events[seen_events:]
            seen_events = len(vm.state.events)
            notes = ", ".join(
                e.kind for e in new
                if e.kind in ("compile", "deopt", "deoptless_dispatch", "osr_in")
            )
            rows.append((phase, it, dt, notes))
    return rows


def main() -> None:
    print("running WITHOUT deoptless (normal deoptimization, Figure 1)...")
    normal = run(False)
    print("running WITH deoptless (dispatched OSR, Figure 2)...")
    deoptless = run(True)

    print("\n%-12s %-3s | %11s %-34s | %11s %s" % (
        "phase", "it", "normal", "events", "deoptless", "events"))
    print("-" * 110)
    for (ph, it, tn, en), (_, _, td, ed) in zip(normal, deoptless):
        print("%-12s %-3d | %9.2fms %-34s | %9.2fms %s" % (
            ph, it, tn * 1e3, en[:34], td * 1e3, ed[:40]))

    n_final = min(t for p, i, t, _ in normal if p == "float again" and i > 0)
    d_final = min(t for p, i, t, _ in deoptless if p == "float again" and i > 0)
    print("\nfinal float phase: normal %.2fms vs deoptless %.2fms (%.1fx)"
          % (n_final * 1e3, d_final * 1e3, n_final / d_final))
    print("normal is stuck with the generic recompile; deoptless kept the "
          "specialized code and its float continuation.")


if __name__ == "__main__":
    main()
