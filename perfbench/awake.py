"""Keep one core awake for serve-mix, and time how fast it runs.

    python3 perfbench/awake.py CPU LOG

Pins itself to CPU and spins at the lowest scheduling class, so any
runnable task preempts it at once.  On a virtual machine an idle vCPU
halts and the hypervisor deschedules it; waking it again costs from
0.1 ms to several ms depending on the neighbours, and one request
crosses several such wake-ups.  With the loop running, a wake-up is a
context switch inside the guest.

The loop is also serve-mix's host-speed probe.  After every BLOCK steps
it appends to LOG the monotonic clock and the CPU seconds the block
took.  CPU time does not count the time the program preempts the loop,
so a slower program does not slow the probe.  The loop exits when its
parent does.
"""

import os
import sys
import time

BLOCK = 1_000_000


def main() -> None:
    parent = os.getppid()
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    with open(sys.argv[2], "w", encoding="ascii") as log:
        while os.getppid() == parent:
            started = time.thread_time()
            for _ in range(BLOCK):
                pass
            log.write(f"{time.monotonic()} {time.thread_time() - started}\n")
            log.flush()


if __name__ == "__main__":
    main()
