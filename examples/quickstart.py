"""Quickstart: a single Ilúvatar worker on the in-situ simulator.

Registers a function, shows the cold-start -> warm-start transition, the
prewarm API, and the Table-2-style control-plane latency breakdown.

Run:  python examples/quickstart.py
"""

from repro import Environment, FunctionRegistration, Worker, WorkerConfig
from repro.experiments import print_table
from repro.experiments.table2_breakdown import component_table


def main() -> None:
    env = Environment()
    worker = Worker(
        env,
        WorkerConfig(
            name="quickstart-worker",
            cores=8,
            memory_mb=8192.0,
            backend="containerd",   # latency-modeled containerd backend
            keepalive_policy="GD",  # Greedy-Dual keep-alive
        ),
    )
    # Retain each invocation's lifecycle context: their component
    # intervals feed the breakdown table at the end.
    worker.lifecycle.keep_contexts = True
    worker.start()

    hello = FunctionRegistration(
        name="hello",
        image="repro/hello:latest",
        memory_mb=256.0,
        warm_time=0.050,   # 50 ms of function code
        cold_time=0.450,   # +400 ms of imports/initialization when cold
    )
    # register() models the image pull; register_sync skips it.
    fqdn = env.run_process(worker.register(hello))
    print(f"registered {fqdn} (image pull took {env.now * 1000:.0f} ms)\n")

    # --- cold start -------------------------------------------------------
    inv = env.run_process(worker.invoke(fqdn))
    print(f"1st invocation: cold={inv.cold}  "
          f"e2e={inv.e2e_time * 1000:.1f} ms  "
          f"overhead={inv.overhead * 1000:.2f} ms")

    # --- warm starts ------------------------------------------------------
    for i in range(2, 5):
        inv = env.run_process(worker.invoke(fqdn))
        print(f"{i}th invocation: cold={inv.cold}  "
              f"e2e={inv.e2e_time * 1000:.1f} ms  "
              f"overhead={inv.overhead * 1000:.2f} ms")

    # --- prewarm avoids the first-invocation cold start ---------------------
    heavy = FunctionRegistration(
        name="ml-model", memory_mb=512.0, warm_time=0.8, cold_time=5.0
    )
    worker.register_sync(heavy)
    env.run_process(worker.prewarm("ml-model.1"))
    inv = env.run_process(worker.invoke("ml-model.1"))
    print(f"\nprewarmed ml-model.1: cold={inv.cold}  "
          f"e2e={inv.e2e_time * 1000:.0f} ms (would be ~5000 ms cold)\n")

    # --- component breakdown (paper Table 2) --------------------------------
    print_table(
        component_table(worker.lifecycle.contexts, scale=1000.0),
        title="Control-plane latency breakdown (ms, mean per invocation)",
    )

    print("\nWorker status:", worker.status())
    worker.stop()


if __name__ == "__main__":
    main()
