"""Coverage for the full forwarded-syscall operation set (Section 3.3)."""


from repro import VorxSystem
from repro.vorx import SyscallError
from repro.vorx.stub import attach_stubs


def run_program(program, n_nodes=1):
    system = VorxSystem(n_nodes=n_nodes, n_workstations=1)
    attach_stubs(system, 0, list(range(n_nodes)))
    sp = system.spawn(0, program)
    system.run_until_complete([sp])
    return sp.result


def test_create_stat_unlink():
    def program(env):
        yield from env.syscall("create", "/data/file", b"0123456789")
        size = yield from env.syscall("stat", "/data/file")
        yield from env.syscall("unlink", "/data/file")
        try:
            yield from env.syscall("stat", "/data/file")
        except SyscallError:
            return size, "gone"
        return size, "still there"

    assert run_program(program) == (10, "gone")


def test_seek_and_partial_reads():
    def program(env):
        fd = yield from env.syscall("open", "/f", "w")
        yield from env.syscall("write", fd, b"abcdefghij")
        yield from env.syscall("seek", fd, 2)
        yield from env.syscall("close", fd)
        fd = yield from env.syscall("open", "/f", "r")
        yield from env.syscall("seek", fd, 4)
        data = yield from env.syscall("read", fd, 3)
        yield from env.syscall("close", fd)
        return data

    assert run_program(program) == b"efg"


def test_getpid_stable_per_stub():
    def program(env):
        a = yield from env.syscall("getpid")
        b = yield from env.syscall("getpid")
        return a, b

    a, b = run_program(program)
    assert a == b


def test_unknown_op_returns_enosys():
    def program(env):
        try:
            yield from env.syscall("ioctl", 1, 2)
        except SyscallError as exc:
            return str(exc)
        return "?"

    assert "ENOSYS" in run_program(program)


def test_unknown_stub_id_returns_esrch():
    system = VorxSystem(n_nodes=1, n_workstations=1)
    attach_stubs(system, 0, [0])
    # Point the node at a nonexistent stub.
    system.node(0).syscalls.bindings[0].stub.stub_id = 999

    def program(env):
        try:
            yield from env.syscall("getpid")
        except SyscallError as exc:
            return str(exc)
        return "?"

    sp = system.spawn(0, program)
    system.run_until_complete([sp])
    assert "ESRCH" in sp.result


def test_write_payload_counts_toward_message_size():
    """Bulk data in a forwarded write is charged on the wire."""
    system = VorxSystem(n_nodes=1, n_workstations=1)
    attach_stubs(system, 0, [0])
    times = {}

    def program(env):
        fd = yield from env.syscall("open", "/bulk", "w")
        t0 = env.now
        yield from env.syscall("write", fd, b"x" * 900)
        times["big"] = env.now - t0
        t0 = env.now
        yield from env.syscall("write", fd, b"x")
        times["small"] = env.now - t0

    sp = system.spawn(0, program)
    system.run_until_complete([sp])
    assert times["big"] > times["small"]
