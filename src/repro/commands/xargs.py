"""xargs — the higher-order primitive G2 calls out.

Reads whitespace-separated items from stdin and spawns the utility with
batches of them as extra arguments.  ``-n N`` bounds batch size; ``-P K``
runs up to K batches concurrently (the "restricted parallelism
orchestration tools" of U2 are xargs -P / GNU parallel style).
"""

from __future__ import annotations

from ..vos.process import Process
from .base import UsageError, command, cpu_coeff, lookup, usage_error, write_err


@command("xargs")
def xargs(proc: Process, argv: list[str]):
    # option parsing must stop at the utility name: everything after it
    # belongs to the utility (xargs -n 1 grep -c pat)
    opts: dict = {}
    i = 0
    try:
        while i < len(argv):
            arg = argv[i]
            if arg == "--":
                i += 1
                break
            if arg in ("-n", "-P"):
                if i + 1 >= len(argv):
                    raise UsageError(f"option {arg} requires an argument")
                opts[arg[1]] = argv[i + 1]
                i += 2
            elif arg.startswith("-n") and len(arg) > 2:
                opts["n"] = arg[2:]
                i += 1
            elif arg.startswith("-P") and len(arg) > 2:
                opts["P"] = arg[2:]
                i += 1
            elif arg == "-t":
                opts["t"] = True
                i += 1
            elif arg.startswith("-") and arg != "-":
                raise UsageError(f"unknown option {arg}")
            else:
                break
        batch_size = int(opts["n"]) if "n" in opts else 0
        parallel = max(1, int(opts.get("P", "1")))
    except (UsageError, ValueError) as err:
        return (yield from usage_error(proc, "xargs", err))
    operands = argv[i:]
    utility = operands[0] if operands else "echo"
    base_args = operands[1:]

    data = yield from proc.read_all(0)
    yield from proc.cpu(len(data) * cpu_coeff("xargs"))
    items = data.split()
    if not items and utility == "echo":
        yield from proc.write(1, b"\n")
        return 0

    fn = lookup(utility)
    if fn is None:
        yield from write_err(proc, f"xargs: {utility}: command not found")
        return 127

    batches: list[list[str]] = []
    if batch_size <= 0:
        batches.append([item.decode("utf-8", "replace") for item in items])
    else:
        for i in range(0, len(items), batch_size):
            batches.append(
                [item.decode("utf-8", "replace") for item in items[i : i + batch_size]]
            )

    status = 0
    fds = {key: handle for key, handle in proc.fds.items() if key in (1, 2)}
    pending: list[int] = []
    for batch in batches:
        args = base_args + batch

        def body(child, fn=fn, args=args):
            result = yield from fn(child, args)
            return result

        pid = yield from proc.spawn(body, name=utility, fds=fds)
        pending.append(pid)
        if len(pending) >= parallel:
            st = yield from proc.wait(pending.pop(0))
            status = max(status, 0 if st == 0 else 123)
    for pid in pending:
        st = yield from proc.wait(pid)
        status = max(status, 0 if st == 0 else 123)
    return status
