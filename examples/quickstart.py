"""Quickstart: build an HPC/VORX system and run a small application.

Two processing nodes rendezvous on a named channel, exchange messages
under the stop-and-wait protocol, and we inspect what happened with the
development tools.  Everything used here comes from the top-level
``repro`` facade.

Run:  python examples/quickstart.py
"""

from repro import Prof, SoftwareOscilloscope, VorxSystem, summarize


def main() -> None:
    # A two-node machine on a single twelve-port HPC cluster.
    system = VorxSystem(n_nodes=2)

    def producer(env):
        # Channels are named; two opens of the same name rendezvous
        # through the distributed object manager.  The with-block closes
        # the channel (and notifies the peer) on scope exit.
        with (yield from env.channel("results")) as channel:
            for item in range(5):
                # Simulate 2 ms of computation, then ship 1 KB of results.
                yield from env.compute(2_000.0, label="produce")
                yield from env.write(channel, 1024, payload=f"item-{item}")

    def consumer(env):
        received = []
        with (yield from env.channel("results")) as channel:
            for _ in range(5):
                size, payload = yield from env.read(channel)
                yield from env.compute(500.0, label="consume")
                received.append(payload)
        return received

    # The software oscilloscope records only once it exists, so create
    # it before the run.
    scope = SoftwareOscilloscope.for_system(system)
    system.spawn(0, producer, name="producer")
    consumer_sp = system.spawn(1, consumer, name="consumer")
    system.run()

    print("consumer received:", consumer_sp.result)
    print(f"\nsimulated time: {system.sim.now / 1000:.2f} ms")

    print("\n--- software oscilloscope (Section 6.2) ---")
    print(scope.render(bins=40))

    print("\n--- prof (Section 6.2) ---")
    print(Prof(system.nodes).format())

    # The summary's USER-US/SYS-US columns come from every CPU's
    # always-on busy sums, so they need no scope.
    print("\n--- vstat metrics ---")
    print(summarize(system))


if __name__ == "__main__":
    main()
