"""Exact bytecode counts: the instrument-cost gates of the tier-1 tests.

Two wall-clock runs of identical work differ by more than the few
percent an instrument may cost, so instrument cost is pinned by counting
the bytecodes the interpreter executes instead. A count is the same on
every run and every machine, and a change to a hot loop states its cost
by updating the pin in its own diff.
"""

import sys

#: Absolute counts are pinned for CPython 3.11, the interpreter CI runs;
#: other versions compile the same source to other bytecode. Relations
#: between counts (equal, or the same at two sizes) hold everywhere.
PINNED = sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11)

#: The kernel's own files: its drain loop and the futures it dispatches.
KERNEL_FILES = ("sim/kernel.py", "sim/events.py")


def _trace(per_call, fn):
    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        fn()
    finally:
        sys.settrace(previous)


def count_bytecodes(fn, files=KERNEL_FILES):
    """Run ``fn()``; the bytecodes it executed in frames of ``files``."""
    count = 0

    def per_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return per_opcode

    def per_call(frame, event, arg):
        if frame.f_code.co_filename.endswith(files):
            frame.f_trace_opcodes = True
            return per_opcode
        return None

    _trace(per_call, fn)
    return count


def count_bytecodes_under(fn, code):
    """Run ``fn()``; ``(bytecodes, calls)`` of the function ``code``.

    Counts every bytecode executed while a frame of ``code`` is live,
    its callees included, and how many times ``code`` was called.
    """
    count = calls = depth = 0

    def per_opcode(frame, event, arg):
        nonlocal count, depth
        if event == "opcode":
            count += 1
        elif event == "return" and frame.f_code is code:
            depth -= 1
        return per_opcode

    def per_call(frame, event, arg):
        nonlocal calls, depth
        if frame.f_code is code:
            calls += 1
            depth += 1
        elif not depth:
            return None
        frame.f_trace_opcodes = True
        return per_opcode

    _trace(per_call, fn)
    return count, calls


def staggered_timeouts(kernel, n):
    """The kernel-events workload: ``n`` timeouts over 97 instants."""
    for index in range(n):
        kernel.timeout(index % 97)
    return kernel
