#!/usr/bin/env python3
"""Incremental computation (paper §4): a log-analytics script re-run as
its input grows — unchanged inputs replay from cache, append-only
growth processes only the new suffix.

    python examples/incremental_logs.py
"""

from repro import IncrementalOptimizer, Shell, aws_c5_2xlarge_gp3
from repro.bench import access_log
from repro.incremental import IncrementalConfig

SCRIPT = "grep ' 500 ' /var/log/access.log | cut -d ' ' -f 1 > /data/bad_hosts.txt"


def main() -> None:
    inc = IncrementalOptimizer(IncrementalConfig(min_input_bytes=1024))
    shell = Shell(aws_c5_2xlarge_gp3(), optimizer=inc)
    log = access_log(60_000, seed=11)
    shell.fs.write_bytes("/var/log/access.log", log)
    print(f"log size: {len(log) / 1e6:.1f} MB")
    print(f"script:   {SCRIPT}\n")

    r1 = shell.run(SCRIPT)
    print(f"run 1 (cold):        {r1.elapsed * 1000:8.2f} ms  "
          f"[{inc.events[-1].decision}]")

    r2 = shell.run(SCRIPT)
    print(f"run 2 (unchanged):   {r2.elapsed * 1000:8.2f} ms  "
          f"[{inc.events[-1].decision}] {r1.elapsed / max(r2.elapsed, 1e-12):.0f}x faster")

    # the log grows, append-only, as logs do
    new_entries = access_log(1_000, seed=99)
    node = shell.fs.files["/var/log/access.log"]
    node.data.extend(new_entries)
    node.mtime = shell.kernel.now + 1.0

    r3 = shell.run(SCRIPT)
    print(f"run 3 (+1000 lines): {r3.elapsed * 1000:8.2f} ms  "
          f"[{inc.events[-1].decision}] — only the appended suffix was "
          f"processed")

    # verify against a from-scratch run
    fresh = Shell(aws_c5_2xlarge_gp3())
    fresh.fs.write_bytes("/var/log/access.log", bytes(node.data))
    fresh.run(SCRIPT)
    assert (fresh.fs.read_bytes("/data/bad_hosts.txt")
            == shell.fs.read_bytes("/data/bad_hosts.txt"))
    print("\nincremental output verified against full recomputation.")
    print(f"cache stats: {inc.cache.stats()}")


if __name__ == "__main__":
    main()
